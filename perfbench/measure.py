"""Measurement helpers: percentiles, resources, import time, outcomes.

Nothing here imports ``repro``, so the helpers are testable on their own
and the benchmark can fail cleanly when the program is missing.
"""

from __future__ import annotations

import math
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field

#: A tail percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def tail(samples, min_beyond: int = TAIL_MIN_BEYOND) -> tuple[float, float]:
    """``(percentile, value)`` of the highest percentile with enough samples.

    The sample at 1-based rank ``r`` of the ascending order has
    ``n - r`` samples beyond it, so the highest usable rank is
    ``n - min_beyond``. When that rank is not above the median rank
    there are too few samples for a tail, and the median is returned
    as the 50th percentile.
    """
    ordered = sorted(samples)
    count = len(ordered)
    if count == 0:
        raise ValueError("tail of an empty sample")
    rank = count - min_beyond
    if rank <= (count + 1) // 2:
        return 50.0, statistics.median(ordered)
    return 100.0 * rank / count, ordered[rank - 1]


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest reaped child.

    ``ru_maxrss`` is in KiB on Linux; for ``RUSAGE_CHILDREN`` it is the
    largest single child, which here is the largest pool worker.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "started = time.perf_counter()\n"
    "import repro\n"
    "print(time.perf_counter() - started)\n"
)


def import_seconds(source_dir: str, repeats: int) -> list[float]:
    """Seconds to ``import repro`` in ``repeats`` fresh interpreters.

    Each probe runs to completion before the next starts. Call this only
    after resources were read: the probes are children of this process.
    """
    times = []
    for _ in range(repeats):
        completed = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, source_dir],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        times.append(float(completed.stdout.strip().splitlines()[-1]))
    return times


@dataclass
class Outcome:
    """What one timed phase did.

    ``op_times`` holds every operation's wall time in order (seconds);
    ``answer_times`` the subset that returned an answer: an advise call,
    a re-advising push or flush, an ``optimize_multipath`` call.
    ``extra_ops`` counts untimed operations run only as oracles.
    """

    op_times: array = field(default_factory=lambda: array("d"))
    answer_times: list = field(default_factory=list)
    extra_ops: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    wall: float = 0.0
    cpu: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.op_times) + self.extra_ops

    @property
    def busy(self) -> float:
        """Seconds spent inside timed operations."""
        return math.fsum(self.op_times)

    def record(self, elapsed: float, answer: bool) -> None:
        self.op_times.append(elapsed)
        if answer:
            self.answer_times.append(elapsed)

    def check(self, problems: list) -> None:
        """Count one operation as failed when its checks found problems."""
        if problems:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(problems[0])


class Phase:
    """Wall and CPU time of a block, stored on an :class:`Outcome`."""

    def __init__(self, outcome: Outcome) -> None:
        self.outcome = outcome

    def __enter__(self) -> "Phase":
        self._wall = time.perf_counter()
        self._cpu = cpu_seconds()
        return self

    def __exit__(self, *exc) -> bool:
        self.outcome.wall = time.perf_counter() - self._wall
        self.outcome.cpu = cpu_seconds() - self._cpu
        return False
