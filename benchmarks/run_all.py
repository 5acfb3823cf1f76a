"""Performance runner: records the perf trajectory of the hot loops.

Four benchmark families, each with its own machine-readable artifact:

* **cost matrix** (``BENCH_costmatrix.json``) — construction on
  synthetic long paths: serial ``CostMatrix.compute`` on fresh inputs
  against the scalar oracle pricing every entry one at a time (fresh
  statistics, cleared Yao memo tables); the same construction fanned
  out over a process pool; and ``CostMatrix.recompute`` after a
  single-class load change against a full recompute;
* **what-if loop** (``BENCH_whatif.json``, via
  :mod:`benchmarks.bench_whatif_loop`) — the PR 4 end-to-end win: a
  drifting-workload loop answered by an incremental
  :class:`~repro.whatif.AdvisorSession` against rerunning the whole
  pipeline every step;
* **trace replay** (``BENCH_trace.json``, via
  :mod:`benchmarks.bench_trace_replay`) — the PR 5 batching win: a
  windowed operation-stream replay applying each drift batch through
  one ``apply_many`` recompute against one recompute per perturbation;
* **columnar kernel** (``BENCH_kernel.json``, via
  :mod:`benchmarks.bench_kernel`) — end-to-end kernel matrix builds:
  scalar-oracle, fresh-state, warm-cache and dirty-slice regimes.

Usage::

    PYTHONPATH=src:. python benchmarks/run_all.py            # full run
    PYTHONPATH=src:. python benchmarks/run_all.py --smoke    # CI guard

``--smoke`` measures short lengths/loops only and exits non-zero when the
length-20 serial build regresses beyond a (generous) absolute threshold
or the what-if session loop stops beating the rerun loop, so CI catches
order-of-magnitude regressions without flaking on machine noise.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import time

from benchmarks.bench_kernel import clear_module_caches, oracle_costs
from benchmarks.env_meta import environment_metadata
from repro.core.cost_matrix import CostMatrix
from repro.costmodel.params import ClassStats, PathStatistics
from repro.organizations import CONFIGURABLE_ORGANIZATIONS
from repro.synth import LevelSpec, linear_path_schema
from repro.workload.load import LoadDistribution, LoadTriplet

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
JSON_NAME = "BENCH_costmatrix.json"

#: --smoke fails when the length-20 serial build exceeds this. The build
#: takes ~70 ms on a 2020s laptop core; 2000 ms only trips on a real
#: regression (e.g. losing the evaluation caches), not on slow CI.
SMOKE_SERIAL_LIMIT_MS = 2000.0

FULL_LENGTHS = (20, 30)
SMOKE_LENGTHS = (10, 20)


def make_inputs(length: int):
    """The bench_matrix_scaling synthetic world."""
    levels = [LevelSpec(f"L{i}") for i in range(length)]
    _schema, path = linear_path_schema(levels)
    per_class = {}
    objects = 50_000
    for position in range(1, length + 1):
        name = path.class_at(position)
        per_class[name] = ClassStats(
            objects=objects, distinct=max(10, objects // 5), fanout=1
        )
        objects = max(100, objects // 4)
    stats = PathStatistics(path, per_class)
    load = LoadDistribution.uniform(path, query=0.2, insert=0.05, delete=0.05)
    return stats, load


def time_scalar_oracle(length: int) -> float:
    """Milliseconds for pricing every entry one at a time with the scalar
    oracle on fresh statistics with cleared Yao memo tables."""
    stats, load = make_inputs(length)
    clear_module_caches()
    started = time.perf_counter()
    oracle_costs(stats, load, CONFIGURABLE_ORGANIZATIONS)
    return (time.perf_counter() - started) * 1000.0


def time_compute(length: int, workers: int | None, repeats: int = 3) -> float:
    """Best-of-N milliseconds for ``CostMatrix.compute`` on fresh inputs."""
    best = float("inf")
    for _ in range(repeats):
        stats, load = make_inputs(length)
        started = time.perf_counter()
        CostMatrix.compute(stats, load, workers=workers)
        best = min(best, (time.perf_counter() - started) * 1000.0)
    return best


def perturb_ending_insert(stats, load) -> LoadDistribution:
    """A single-class what-if: bump the ending class's insert frequency."""
    ending = stats.path.class_at(stats.length)
    triplets = {}
    for name, triplet in load.items():
        if name == ending:
            triplet = LoadTriplet(
                query=triplet.query,
                insert=triplet.insert * 2.0 + 0.01,
                delete=triplet.delete,
            )
        triplets[name] = triplet
    return LoadDistribution(load.path, triplets)


def time_incremental(length: int, repeats: int = 3) -> dict:
    """Incremental recompute vs full recompute after one load change.

    Every repeat, on either side, prices a new load object, so it is the
    first pricing of its inputs — what one what-if step costs with and
    without ``recompute`` — never a rebuild from the lowering already
    cached for the same load object.
    """
    stats, load = make_inputs(length)
    matrix = CostMatrix.compute(stats, load)
    dirty = matrix._dirty_rows(stats, perturb_ending_insert(stats, load))
    full_ms = float("inf")
    for _ in range(repeats):
        new_load = perturb_ending_insert(stats, load)
        started = time.perf_counter()
        full = CostMatrix.compute(stats, new_load)
        full_ms = min(full_ms, (time.perf_counter() - started) * 1000.0)
    incremental_ms = float("inf")
    for _ in range(repeats):
        new_load = perturb_ending_insert(stats, load)
        started = time.perf_counter()
        incremental = matrix.recompute(load=new_load)
        incremental_ms = min(
            incremental_ms, (time.perf_counter() - started) * 1000.0
        )
    for start, end in full.rows():
        for organization in full.organizations:
            assert incremental.cost(start, end, organization) == full.cost(
                start, end, organization
            ), "incremental recompute diverged from full compute"
    return {
        "full_recompute_ms": round(full_ms, 3),
        "incremental_ms": round(incremental_ms, 3),
        "speedup": round(full_ms / incremental_ms, 2) if incremental_ms else None,
        "dirty_rows": len(dirty) if dirty is not None else None,
        "total_rows": matrix.row_count(),
    }


def measure(length: int, parallel_workers: int) -> dict:
    """Every construction measurement for one path length.

    Order matters: the scalar oracle runs first, because it clears the
    shared module-level memo tables (Yao's formula) the later builds
    reuse, so those tables never favour the oracle.
    """
    oracle_ms = time_scalar_oracle(length)
    serial_ms = time_compute(length, workers=0)
    parallel_ms = time_compute(length, workers=parallel_workers)
    result = {
        "length": length,
        "rows": length * (length + 1) // 2,
        "scalar_oracle_ms": round(oracle_ms, 3),
        "serial_ms": round(serial_ms, 3),
        "serial_speedup_vs_oracle": round(oracle_ms / serial_ms, 2),
        "parallel_workers": parallel_workers,
        "parallel_ms": round(parallel_ms, 3),
        "parallel_speedup_vs_serial": round(serial_ms / parallel_ms, 2),
        "incremental": time_incremental(length),
    }
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="short lengths only; non-zero exit on gross serial regression",
    )
    parser.add_argument(
        "--json-path",
        default=None,
        help=f"output path (default benchmarks/results/{JSON_NAME})",
    )
    arguments = parser.parse_args(argv)

    lengths = SMOKE_LENGTHS if arguments.smoke else FULL_LENGTHS
    cpu_count = os.cpu_count() or 1
    # On a single-CPU box a 2-worker pool still exercises the parallel
    # code path (and the parity guarantee); it just cannot be faster.
    parallel_workers = max(2, cpu_count)

    measurements = [measure(length, parallel_workers) for length in lengths]
    report = {
        "benchmark": "costmatrix",
        "mode": "smoke" if arguments.smoke else "full",
        "python": platform.python_version(),
        "cpu_count": cpu_count,
        "environment": environment_metadata(),
        "measurements": measurements,
    }

    json_path = (
        pathlib.Path(arguments.json_path)
        if arguments.json_path
        else RESULTS_DIR / JSON_NAME
    )
    json_path.parent.mkdir(parents=True, exist_ok=True)
    json_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report, indent=2))
    print(f"\nwritten to {json_path}", file=sys.stderr)

    failures: list[str] = []
    if arguments.smoke:
        guard = next(m for m in measurements if m["length"] == 20)
        if guard["serial_ms"] > SMOKE_SERIAL_LIMIT_MS:
            failures.append(
                f"length-20 serial build took {guard['serial_ms']:.0f} ms "
                f"(limit {SMOKE_SERIAL_LIMIT_MS:.0f} ms)"
            )

    # The what-if loop and trace-replay benchmarks write their own
    # artifacts next to this one (the CI job uploads all of them) and
    # share the --smoke contract.
    from benchmarks import (
        bench_backend_replay,
        bench_kernel,
        bench_obs,
        bench_resilience,
        bench_trace_replay,
        bench_whatif_loop,
    )

    whatif_report = bench_whatif_loop.run(arguments.smoke)
    whatif_path = json_path.parent / bench_whatif_loop.JSON_NAME
    whatif_path.write_text(
        json.dumps(whatif_report, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps(whatif_report, indent=2))
    print(f"\nwritten to {whatif_path}", file=sys.stderr)
    if arguments.smoke:
        failures.extend(bench_whatif_loop.check_smoke(whatif_report))

    trace_report = bench_trace_replay.run(arguments.smoke)
    trace_path = json_path.parent / bench_trace_replay.JSON_NAME
    trace_path.write_text(
        json.dumps(trace_report, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps(trace_report, indent=2))
    print(f"\nwritten to {trace_path}", file=sys.stderr)
    if arguments.smoke:
        failures.extend(bench_trace_replay.check_smoke(trace_report))

    kernel_report = bench_kernel.run(arguments.smoke)
    kernel_path = json_path.parent / bench_kernel.JSON_NAME
    kernel_path.write_text(
        json.dumps(kernel_report, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps(kernel_report, indent=2))
    print(f"\nwritten to {kernel_path}", file=sys.stderr)
    if arguments.smoke:
        failures.extend(bench_kernel.check_smoke(kernel_report))

    resilience_report = bench_resilience.run(arguments.smoke)
    resilience_path = json_path.parent / bench_resilience.JSON_NAME
    resilience_path.write_text(
        json.dumps(resilience_report, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps(resilience_report, indent=2))
    print(f"\nwritten to {resilience_path}", file=sys.stderr)
    if arguments.smoke:
        failures.extend(bench_resilience.check_smoke(resilience_report))

    backend_report = bench_backend_replay.run(arguments.smoke)
    backend_path = json_path.parent / bench_backend_replay.JSON_NAME
    backend_path.write_text(
        json.dumps(backend_report, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps(backend_report, indent=2))
    print(f"\nwritten to {backend_path}", file=sys.stderr)
    if arguments.smoke:
        failures.extend(bench_backend_replay.check_smoke(backend_report))

    obs_report = bench_obs.run(arguments.smoke)
    obs_path = json_path.parent / bench_obs.JSON_NAME
    obs_path.write_text(
        json.dumps(obs_report, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps(obs_report, indent=2))
    print(f"\nwritten to {obs_path}", file=sys.stderr)
    if arguments.smoke:
        failures.extend(bench_obs.check_smoke(obs_report))

    for failure in failures:
        print(f"SMOKE FAILURE: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
