"""The advisor benchmark: one seeded workload, timed end to end or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload advise-paper --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload's operations for ``--seconds`` of busy
time with nothing wrapped and prints the end-to-end metrics:

* ``op_p50_ms`` — median wall time of an operation that returns an
  answer: an ``advise`` call, a push or flush that re-advises, an
  ``optimize_multipath`` call;
* ``op_tail_ms`` — the highest percentile of the same times that leaves
  at least ten samples beyond it (the median when there are too few);
  the percentile and the sample count are printed beside it;
* ``throughput_per_s`` — operations per second of busy time: advise
  calls, trace events (re-advises included) or multipath calls;
* ``setup_s`` — the median time to ``import repro`` in a fresh
  interpreter plus the median of several set-ups, each building the
  workload's program objects and running one warm-up operation (input
  generation excluded);
* ``peak_rss_mb`` — peak resident memory of this process plus its
  largest pool worker.

``--trace 1`` runs the operations unwrapped for a third of
``--seconds``, then replays a prefix of them twice on new program
objects: unwrapped, as the overhead baseline, and with every layer
boundary wrapped (see :mod:`layers`). It prints the per-layer metrics;
the trace is exported under ``perfbench/out/`` and validated with
``tools/check_trace.py``.

Failed operations (an exception, a failed oracle, a degraded answer)
are counted against those attempted. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import pathlib
import statistics
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"

#: Every end-to-end metric a timed run prints, with its unit.
END_TO_END_UNITS = {
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "throughput_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Set-ups per timed run; ``setup_s`` reports the median.
SETUP_REPEATS = 3
#: Fresh-interpreter ``import repro`` probes per timed run.
IMPORT_REPEATS = 3
#: Most operations a traced run replays: every span stays in memory
#: until the export, and a replay pushes tens of thousands of events.
MAX_TRACED_OPS = 30_000


def _load_program():
    """Import the workloads and the repository helpers they reuse."""
    sys.path[:0] = [str(SOURCE), str(ROOT)]
    import workloads
    from benchmarks.env_meta import environment_metadata

    spec = importlib.util.spec_from_file_location(
        "check_trace", ROOT / "tools" / "check_trace.py"
    )
    if spec is None or spec.loader is None:
        raise ImportError("tools/check_trace.py is missing")
    check_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check_trace)
    return workloads, environment_metadata, check_trace.validate


def timed_run(workload, seconds: float) -> tuple[dict, object]:
    """End-to-end metrics of one untraced run, and its outcome."""
    from measure import Outcome, Phase, import_seconds, peak_rss_mb, tail

    setups = []
    driver = None
    for rep in range(SETUP_REPEATS):
        inputs = workload.fresh_inputs(rep)
        started = time.perf_counter()
        driver = workload.build(inputs)
        setups.append(time.perf_counter() - started)
    outcome = Outcome()
    with Phase(outcome):
        workload.run(driver, outcome, seconds=seconds)
    rss = peak_rss_mb()
    workload.verify(outcome)
    imports = import_seconds(str(SOURCE), IMPORT_REPEATS)
    percentile, tail_value = tail(outcome.answer_times)
    print(
        f"answers: {len(outcome.answer_times)} of {len(outcome.op_times)} "
        f"operations; tail is p{percentile:.1f}"
    )
    print(
        f"setup: import {statistics.median(imports):.4f} s "
        f"(of {[round(value, 4) for value in imports]}), build "
        f"{statistics.median(setups):.4f} s "
        f"(of {[round(value, 4) for value in setups]})"
    )
    values = {
        "op_p50_ms": 1000.0 * statistics.median(outcome.answer_times),
        "op_tail_ms": 1000.0 * tail_value,
        "throughput_per_s": len(outcome.op_times) / outcome.busy,
        "setup_s": statistics.median(imports) + statistics.median(setups),
        "peak_rss_mb": rss,
    }
    metrics = {
        name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()
    }
    return metrics, outcome


def traced_run(workload, seconds: float, export_path, meta, validate):
    """Per-layer metrics of one traced run, its outcome and its problems."""
    from layers import (
        PER_LAYER_UNITS,
        SELF_TIME_METRICS,
        LayerTracer,
        export_and_validate,
        layer_metrics,
    )
    from measure import Outcome, Phase

    driver = workload.build(workload.fresh_inputs(0))
    outcome = Outcome()
    with Phase(outcome):
        workload.run(driver, outcome, seconds=seconds / 3.0)
    workload.verify(outcome)
    count = min(len(outcome.op_times), MAX_TRACED_OPS)

    # The overhead baseline replays the same prefix untraced right before
    # the traced replay, so both find the program's module-level caches
    # equally warm from the first pass.
    driver = workload.build(workload.fresh_inputs(0))
    baseline = Outcome()
    workload.run(driver, baseline, count=count)
    untraced = baseline.busy

    driver = workload.build(workload.fresh_inputs(0))
    tracer = LayerTracer()
    with tracer:
        workload.run(driver, Outcome(), count=count, tracer=tracer)
    layers, op_seconds = layer_metrics(tracer.recorder.spans)
    problems = []
    accounted = math.fsum(layers[name] for name in SELF_TIME_METRICS)
    if abs(accounted - 1000.0 * op_seconds) > 1e-6 * max(1.0, accounted):
        problems.append(
            f"layer self times add up to {accounted} ms, "
            f"not the {1000.0 * op_seconds} ms operation time"
        )
    export_path.parent.mkdir(parents=True, exist_ok=True)
    problems.extend(
        export_and_validate(tracer, export_path, meta, workload.root, validate)
    )
    print(
        f"traced {count} operations ({len(tracer.recorder.spans)} spans), "
        f"exported to {export_path.relative_to(ROOT)}; fold work inside pool "
        f"workers is not visible and stays in cost_matrix.compute_ms"
    )
    values = {
        **layers,
        **workload.traced_counts(),
        "process.cpu_per_wall": outcome.cpu / outcome.wall,
        "bench.op_ms": 1000.0 * op_seconds,
        "bench.trace_overhead_pct": 100.0
        * (op_seconds * count - untraced)
        / untraced,
    }
    # A layer the workload never enters reads 0.
    metrics = {
        name: (values.get(name, 0.0), unit)
        for name, unit in PER_LAYER_UNITS.items()
    }
    return metrics, outcome, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    if arguments.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        workloads, environment_metadata, validate = _load_program()
    except ImportError as error:
        print(f"perfbench: cannot load the program: {error}", file=sys.stderr)
        return 2
    if arguments.workload not in workloads.WORKLOADS:
        parser.error(
            f"unknown workload {arguments.workload!r}; expected one of "
            f"{', '.join(workloads.WORKLOADS)}"
        )
    workload = workloads.WORKLOADS[arguments.workload]()
    environment = environment_metadata()
    print(f"workload {workload.name}: {workload.why}")
    print(f"parameters: {json.dumps(workload.params(), sort_keys=True)}")
    print(f"environment: {json.dumps(environment, sort_keys=True)}")
    workload.prepare(arguments.seed)
    problems: list[str] = []
    if arguments.trace:
        export_path = (
            HERE / "out"
            / f"{workload.name}-seed{arguments.seed}.trace.json"
        )
        meta = {
            "workload": workload.name,
            "seed": arguments.seed,
            "environment": environment,
        }
        metrics, outcome, problems = traced_run(
            workload, arguments.seconds, export_path, meta, validate
        )
    else:
        metrics, outcome = timed_run(workload, arguments.seconds)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    failed = min(outcome.failed, outcome.attempted)
    print(
        f"error_rate: {failed / outcome.attempted:.6g} "
        f"({failed} of {outcome.attempted} operations failed)"
    )
    for problem in [*outcome.failures, *problems]:
        print(f"problem: {problem}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
