"""Seeded fault injection for the chaos test suite.

Resilience code that is only exercised by real infrastructure failures
is untested code. :class:`FaultInjector` manufactures the failures on
demand — worker-pool crashes, searches that outlive their deadline,
corrupted trace lines, torn checkpoint writes — all **deterministic**
under a seed, so a chaos test that fails replays exactly.

Injection points map one-to-one onto the production seams they attack:

* :meth:`FaultInjector.broken_pool` patches
  :func:`repro.core.cost_matrix._run_pool_once` (the single place every
  parallel matrix construction funnels through) to raise
  ``BrokenProcessPool`` for the first *n* calls;
* :meth:`FaultInjector.clock` returns a :class:`FakeClock` to drive
  :class:`~repro.resilience.Deadline` expiry without real waiting;
* :meth:`FaultInjector.corrupt_trace` rewrites seeded lines of a JSONL
  trace into garbage (exercising ``iter_trace``'s ``on_error`` paths);
* :meth:`FaultInjector.torn_checkpoint` truncates a checkpoint file
  mid-record (exercising the digest-trailer integrity check).

Every injection is appended to :attr:`FaultInjector.log`, so chaos
tests can assert that each *injected* fault produced a corresponding
*recorded* degradation — nothing swallowed silently.
"""

from __future__ import annotations

import json
import pathlib
import random
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from typing import Iterator

from repro.errors import ResilienceError


class FakeClock:
    """A manually advanced monotonic clock for deterministic deadlines.

    Pass as ``Deadline(budget, clock=fake)`` (or assign to
    ``ContinuousAdvisor._deadline_clock``) and call :meth:`advance` to
    expire budgets on cue — no sleeping, no flaky timing.
    """

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        """Move time forward (never backward — monotonic)."""
        if seconds < 0:
            raise ResilienceError(
                f"a monotonic clock cannot go backward ({seconds})"
            )
        self.now += seconds


class FaultInjector:
    """Deterministic fault factory; one seed, one failure schedule."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        #: Every injection performed: ``(kind, detail)`` pairs.
        self.log: list[tuple[str, dict]] = []

    def clock(self, start: float = 0.0) -> FakeClock:
        """A fresh :class:`FakeClock` (logged for the test record)."""
        self.log.append(("clock", {"start": start}))
        return FakeClock(start)

    @contextmanager
    def broken_pool(self, times: int = 1) -> Iterator[list[int]]:
        """Crash the next ``times`` worker-pool fan-outs.

        Patches the module-level ``_run_pool_once`` seam in
        :mod:`repro.core.cost_matrix`; later calls pass through to the
        real pool. Yields a single-element list holding the crash count
        so far, so tests can assert how many fan-outs were actually hit.
        """
        from repro.core import cost_matrix

        original = cost_matrix._run_pool_once
        crashes = [0]

        def unreliable(*arguments):
            if crashes[0] < times:
                crashes[0] += 1
                self.log.append(
                    ("broken_pool", {"call": crashes[0], "of": times})
                )
                raise BrokenProcessPool("injected worker-pool crash")
            return original(*arguments)

        cost_matrix._run_pool_once = unreliable
        try:
            yield crashes
        finally:
            cost_matrix._run_pool_once = original

    def corrupt_trace(
        self, path: str | pathlib.Path, corruptions: int = 1
    ) -> list[int]:
        """Overwrite seeded lines of a JSONL trace with garbage.

        Three corruption shapes rotate deterministically: truncated
        JSON, valid JSON with an unknown event kind, and a negative
        timestamp. Returns the corrupted line numbers (1-based), which
        chaos tests compare against
        :class:`~repro.trace.TraceReadReport.skipped_lines`.
        """
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        if not lines:
            raise ResilienceError(f"cannot corrupt empty trace {path}")
        count = min(corruptions, len(lines))
        numbers = sorted(self.rng.sample(range(1, len(lines) + 1), count))
        shapes = [
            '{"ts": 1.0, "kind": "qu',
            json.dumps({"ts": 1.0, "kind": "compact", "class": "X"}),
            json.dumps({"ts": -5.0, "kind": "query", "class": "X"}),
        ]
        for position, number in enumerate(numbers):
            lines[number - 1] = shapes[position % len(shapes)]
            self.log.append(("corrupt_trace", {"line": number}))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        return numbers

    def torn_checkpoint(self, path: str | pathlib.Path) -> int:
        """Truncate a checkpoint at a seeded byte offset (a torn write).

        Keeps between 10% and 90% of the file, cut mid-record, and
        returns the bytes kept. Restoring the torn file must raise
        :class:`~repro.errors.CheckpointError` — never resume silently.
        """
        raw = pathlib.Path(path).read_bytes()
        if len(raw) < 2:
            raise ResilienceError(f"cannot tear empty checkpoint {path}")
        keep = self.rng.randint(max(1, len(raw) // 10), (len(raw) * 9) // 10)
        pathlib.Path(path).write_bytes(raw[:keep])
        self.log.append(
            ("torn_checkpoint", {"kept": keep, "of": len(raw)})
        )
        return keep
