"""Observability overhead: the disabled recorder must stay under 2 %.

The PR 10 instrumentation contract: every pipeline layer accepts a
``recorder`` and the default :data:`~repro.obs.NULL_RECORDER` makes each
instrumented call site one attribute lookup plus one no-op call. This
benchmark proves the budget holds on the bench_kernel smoke path (a
serial fresh ``CostMatrix.compute`` on the deep-hierarchy world) without
A/B-timing two builds against each other — that guard would flake on
machine noise because the real overhead is orders of magnitude below
run-to-run variance.

Instead the guard is arithmetic over two stable measurements:

* **op counts** — a counting recorder (``enabled = False``, so it takes
  exactly the disabled control-flow path) tallies how many span and
  metric operations the smoke path performs; the counts are
  deterministic properties of the code, not timings;
* **null op cost** — the per-operation cost of the real
  :class:`~repro.obs.NullRecorder`, timed over a large tight loop where
  the mean is stable.

``overhead_pct = ops x null_op_cost / smoke_path_runtime``. The smoke
run fails when that exceeds :data:`OVERHEAD_LIMIT_PCT` — or when the
counting recorder sees zero spans, which means the instrumentation was
unplugged and the guard is vacuous. An enabled-recorder build is also
timed for the artifact (recording cost is allowed to be visible; only
the disabled path has a budget).

Usage::

    PYTHONPATH=src:. python benchmarks/bench_obs.py           # full
    PYTHONPATH=src:. python benchmarks/bench_obs.py --smoke   # CI
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from benchmarks.bench_kernel import SMOKE_LENGTH, clear_module_caches, make_inputs
from benchmarks.env_meta import environment_metadata
from repro.core.cost_matrix import CostMatrix
from repro.obs import NULL_RECORDER, NullRecorder, Recorder

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
JSON_NAME = "BENCH_obs.json"

#: The ISSUE 10 acceptance bar: recording-off overhead on the
#: bench_kernel smoke path must stay at or below this.
OVERHEAD_LIMIT_PCT = 2.0

#: Iterations for the null-op timing loop (large enough that the mean
#: per-op cost is stable to well under the guard's headroom).
NULL_OP_ITERATIONS = 200_000

REPEATS = 5


class CountingRecorder(NullRecorder):
    """A disabled recorder that tallies the operations it discards.

    ``enabled`` stays ``False`` so every ``if recorder.enabled`` gate in
    the pipeline takes the same branch as with the real null recorder —
    the counts are exactly the operations the disabled path pays for.
    """

    __slots__ = ("span_ops", "metric_ops")

    def __init__(self) -> None:
        self.span_ops = 0
        self.metric_ops = 0

    def span(self, name: str, **attrs):
        self.span_ops += 1
        return super().span(name, **attrs)

    def counter(self, name: str, **labels):
        self.metric_ops += 1
        return super().counter(name, **labels)


def count_smoke_path_ops(length: int) -> dict:
    """Deterministic span/metric op counts on one serial fresh build."""
    stats, load = make_inputs(length)
    clear_module_caches()
    recorder = CountingRecorder()
    CostMatrix.compute(
        stats, load, include_noindex=True, workers=0, recorder=recorder
    )
    return {"spans": recorder.span_ops, "metrics": recorder.metric_ops}


def time_null_ops(iterations: int = NULL_OP_ITERATIONS) -> dict:
    """Mean nanoseconds per disabled span / counter operation."""
    span = NULL_RECORDER.span
    started = time.perf_counter()
    for _ in range(iterations):
        with span("bench"):
            pass
    span_ns = (time.perf_counter() - started) / iterations * 1e9
    counter = NULL_RECORDER.counter
    started = time.perf_counter()
    for _ in range(iterations):
        counter("bench").add()
    counter_ns = (time.perf_counter() - started) / iterations * 1e9
    return {"span_ns": round(span_ns, 2), "counter_ns": round(counter_ns, 2)}


def time_smoke_path(length: int, recorder_factory) -> float:
    """Best-of-N milliseconds for the serial fresh build."""
    best = float("inf")
    for _ in range(REPEATS):
        stats, load = make_inputs(length)
        clear_module_caches()
        started = time.perf_counter()
        CostMatrix.compute(
            stats,
            load,
            include_noindex=True,
            workers=0,
            recorder=recorder_factory(),
        )
        best = min(best, (time.perf_counter() - started) * 1000.0)
    return round(best, 3)


def run(smoke: bool) -> dict:
    length = SMOKE_LENGTH
    ops = count_smoke_path_ops(length)
    null_op_ns = time_null_ops()
    disabled_ms = time_smoke_path(length, lambda: None)
    enabled_ms = time_smoke_path(length, Recorder)
    overhead_ns = (
        ops["spans"] * null_op_ns["span_ns"]
        + ops["metrics"] * null_op_ns["counter_ns"]
    )
    overhead_pct = overhead_ns / (disabled_ms * 1e6) * 100.0
    return {
        "benchmark": "obs",
        "mode": "smoke" if smoke else "full",
        "environment": environment_metadata(),
        "length": length,
        "smoke_path_ops": ops,
        "null_op_ns": null_op_ns,
        "disabled_ms": disabled_ms,
        "enabled_ms": enabled_ms,
        "overhead_pct": round(overhead_pct, 4),
        "overhead_limit_pct": OVERHEAD_LIMIT_PCT,
    }


def check_smoke(report: dict) -> list[str]:
    """CI guard: disabled-recorder overhead within budget, wiring live."""
    failures = []
    if report["smoke_path_ops"]["spans"] == 0:
        failures.append(
            "the counting recorder saw zero spans on the smoke path — the "
            "matrix build is no longer instrumented, the overhead guard "
            "is vacuous"
        )
    if report["overhead_pct"] > report["overhead_limit_pct"]:
        failures.append(
            f"disabled-recorder overhead {report['overhead_pct']:.4f}% on "
            f"the bench_kernel smoke path exceeds the "
            f"{report['overhead_limit_pct']}% budget"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument(
        "--json-path",
        default=None,
        help=f"output path (default benchmarks/results/{JSON_NAME})",
    )
    arguments = parser.parse_args(argv)
    report = run(arguments.smoke)
    json_path = (
        pathlib.Path(arguments.json_path)
        if arguments.json_path
        else RESULTS_DIR / JSON_NAME
    )
    json_path.parent.mkdir(parents=True, exist_ok=True)
    json_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report, indent=2))
    print(f"\nwritten to {json_path}", file=sys.stderr)
    failures = check_smoke(report) if arguments.smoke else []
    for failure in failures:
        print(f"SMOKE FAILURE: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
