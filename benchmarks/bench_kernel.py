"""Columnar kernel: cold, warm and incremental matrix builds.

``CostMatrix.compute`` prices the whole matrix as numpy array operations
over all (row, organization) pairs. Every run asserts the result
bit-identical, entry by entry, to the scalar
:func:`~repro.costmodel.subpath.subpath_processing_cost` oracle (also
property-pinned in ``tests/test_kernel_parity.py``).

Four timing regimes:

* **scalar_oracle** — the same fresh-state matrix priced entry by entry
  with ``subpath_processing_cost``, the per-entry build the kernel
  replaces (these entries are the ones the parity check compares);
* **fresh** (the primary metric) — every repeat builds a new
  ``PathStatistics`` world *and* clears the module-level Yao memo
  tables, the cold first-build cost a caller actually pays on new
  inputs; it must beat the scalar oracle by :data:`SMOKE_MIN_SPEEDUP`;
* **warm** — the same statistics and workload objects rebuilt, which
  hits the persistent ``StatArrays`` lowering cache and its memoized
  pre-fold evaluation units, so a rebuild pays the three frequency
  folds per organization and no Yao work; it must beat the fresh build
  by :data:`WARM_MIN_SPEEDUP`;
* **dirty_slice** — a deterministic edge-drift recompute chain where
  each step re-prices only its dirty rows as an array-slice evaluation
  over the cached (workload-patched) lowering, against a full rebuild
  per step over the same loads; the chain must beat the rebuilds by
  :data:`DIRTY_MIN_SPEEDUP`.

The full run also records **fold_split**: median milliseconds of the
``kernel.fold`` span and of each ``kernel.fold.<organization>`` child
over fresh serial builds at every :data:`FOLD_SPLIT_LENGTHS` length
(recorded only, never gated).

Results land in ``benchmarks/results/BENCH_kernel.json``. ``--smoke``
runs length 20 and fails when the fresh build stops beating the scalar
oracle, the warm rebuild drops below the persistent-lowering floor, or
the dirty-slice chain stops beating the full rebuilds (or prices no row
on the kernel).

Usage::

    PYTHONPATH=src:. python benchmarks/bench_kernel.py           # full
    PYTHONPATH=src:. python benchmarks/bench_kernel.py --smoke   # CI
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import statistics
import sys
import time

from benchmarks.env_meta import environment_metadata
from repro.core.cost_matrix import CostMatrix
from repro.costmodel import yao
from repro.costmodel.params import ClassStats, CostModelConfig, PathStatistics
from repro.costmodel.subpath import subpath_processing_cost
from repro.obs import Recorder
from repro.organizations import EXTENDED_ORGANIZATIONS
from repro.synth import LevelSpec, linear_path_schema
from repro.workload.load import LoadDistribution, LoadTriplet

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
JSON_NAME = "BENCH_kernel.json"

#: CI guard for cold builds: a fresh kernel build must beat pricing the
#: same fresh-state matrix entry by entry with the scalar oracle by at
#: least this factor (measured ~6.5x at length 20 and ~21x at length 40
#: on a 2-CPU runner).
SMOKE_MIN_SPEEDUP = 3.0

#: Warm rebuilds must hit the persistent StatArrays lowering cache and
#: beat fresh (cold) builds by at least this factor (measured ~9x at
#: length 20 and ~7x at length 40 on a 2-CPU runner; guarded in smoke
#: too, so a cache regression shows up immediately).
WARM_MIN_SPEEDUP = 3.0

#: CI guard for the dirty-slice recompute chain: slices over
#: cached/patched lowerings must beat a full rebuild per step. Generous
#: (measured ~15x at length 20 on a 2-CPU runner) so noise never flakes
#: the build.
DIRTY_MIN_SPEEDUP = 3.0

#: Steps in the deterministic dirty-slice drift chain.
DIRTY_STEPS = 25

FULL_LENGTH = 40
SMOKE_LENGTH = 20
REPEATS = 5

#: Path lengths of the full run's per-organization cold fold split.
FOLD_SPLIT_LENGTHS = (20, 40, 64)


def make_inputs(length: int):
    """A deep-hierarchy world: subclasses on every third position, big
    cardinalities up front so the Yao estimates hit every regime the
    kernel vectorizes (small-t loop, grouped cumprod, Cardenas)."""
    levels = [
        LevelSpec(f"L{i}", subclasses=(0, 1, 0, 2, 0)[i % 5])
        for i in range(length)
    ]
    _schema, path = linear_path_schema(levels)
    per_class = {}
    objects = 400_000
    for position in range(1, length + 1):
        for member in path.hierarchy_at(position):
            per_class[member] = ClassStats(
                objects=objects, distinct=max(10, objects // 6), fanout=1.0
            )
        objects = max(50, objects // 5)
    stats = PathStatistics(path, per_class, CostModelConfig())
    load = LoadDistribution.uniform(path, query=0.3, insert=0.1, delete=0.05)
    return stats, load


def clear_module_caches() -> None:
    """Drop the module-level Yao memo tables (per-statistics evaluation
    memos die with the fresh ``PathStatistics`` object each repeat)."""
    yao._npa_integer.cache_clear()
    yao._npa_pair.cache_clear()


def time_builds(length: int, fresh: bool) -> dict:
    """Best/median milliseconds over REPEATS serial builds."""
    if not fresh:
        warm_inputs = make_inputs(length)
        CostMatrix.compute(*warm_inputs, include_noindex=True, workers=0)
    samples = []
    for _ in range(REPEATS):
        if fresh:
            stats, load = make_inputs(length)
            clear_module_caches()
        else:
            stats, load = warm_inputs
        started = time.perf_counter()
        CostMatrix.compute(stats, load, include_noindex=True, workers=0)
        samples.append((time.perf_counter() - started) * 1000.0)
    return {
        "best_ms": round(min(samples), 3),
        "median_ms": round(statistics.median(samples), 3),
    }


def drift_loads(stats, base_load, steps: int):
    """Deterministic edge drift: the ending classes' query frequencies
    oscillate step by step (the ingest-side what-if pattern), so every
    run re-prices the same dirty-row slices."""
    path = stats.path
    edge = {path.class_at(stats.length), path.class_at(stats.length - 1)}
    loads = []
    current = base_load
    for step in range(1, steps + 1):
        factor = 1.0 + 0.1 * (step % 5)
        triplets = {}
        for name, triplet in current.items():
            if name in edge:
                triplet = LoadTriplet(
                    query=triplet.query * factor + 1e-4,
                    insert=triplet.insert,
                    delete=triplet.delete,
                )
            triplets[name] = triplet
        current = LoadDistribution(path, triplets)
        loads.append(current)
    return loads


def time_dirty_slice(length: int) -> dict:
    """One deterministic recompute chain against a full rebuild per step:
    total milliseconds of each, plus the re-priced rows summed over every
    step's report."""
    stats, load = make_inputs(length)
    loads = drift_loads(stats, load, DIRTY_STEPS)
    matrix = CostMatrix.compute(stats, load, include_noindex=True, workers=0)
    repriced = 0
    started = time.perf_counter()
    for step_load in loads:
        matrix = matrix.recompute(load=step_load, workers=0)
        repriced += len(matrix.recompute_report.recomputed_rows)
    slice_ms = (time.perf_counter() - started) * 1000.0
    started = time.perf_counter()
    for step_load in loads:
        CostMatrix.compute(stats, step_load, include_noindex=True, workers=0)
    rebuild_ms = (time.perf_counter() - started) * 1000.0
    return {
        "total_ms": round(slice_ms, 3),
        "full_rebuild_ms": round(rebuild_ms, 3),
        "speedup": round(rebuild_ms / slice_ms, 2),
        "steps": DIRTY_STEPS,
        "rows_repriced": repriced,
    }


def time_fold_split(length: int) -> dict:
    """Median ms of ``kernel.fold`` and each ``kernel.fold.<organization>``
    span over REPEATS fresh serial builds."""
    samples: dict[str, list[float]] = {}
    for _ in range(REPEATS):
        stats, load = make_inputs(length)
        clear_module_caches()
        recorder = Recorder()
        CostMatrix.compute(
            stats, load, include_noindex=True, workers=0, recorder=recorder
        )
        for span in recorder.spans:
            if span["name"].startswith("kernel.fold"):
                samples.setdefault(span["name"], []).append(span["dur"] * 1000.0)
    return {
        name: round(statistics.median(values), 3)
        for name, values in sorted(samples.items())
    }


def oracle_costs(stats, load, organizations) -> dict:
    """Every matrix entry priced one at a time by the scalar oracle."""
    return {
        (start, end, organization): subpath_processing_cost(
            stats, load, start, end, organization
        ).total
        for start in range(1, stats.length + 1)
        for end in range(start, stats.length + 1)
        for organization in organizations
    }


def time_oracle(length: int) -> dict:
    """Best/median milliseconds over REPEATS fresh-state scalar oracle
    builds; the last one's entries must equal the kernel's bit for bit."""
    samples = []
    for _ in range(REPEATS):
        stats, load = make_inputs(length)
        clear_module_caches()
        started = time.perf_counter()
        expected = oracle_costs(stats, load, EXTENDED_ORGANIZATIONS)
        samples.append((time.perf_counter() - started) * 1000.0)
    matrix = CostMatrix.compute(stats, load, include_noindex=True, workers=0)
    for (start, end, organization), cost in expected.items():
        assert matrix.cost(start, end, organization) == cost, (
            "columnar kernel diverged from the scalar oracle"
        )
    return {
        "best_ms": round(min(samples), 3),
        "median_ms": round(statistics.median(samples), 3),
    }


def run(smoke: bool) -> dict:
    length = SMOKE_LENGTH if smoke else FULL_LENGTH
    report = {
        "benchmark": "kernel",
        "mode": "smoke" if smoke else "full",
        "python": platform.python_version(),
        "environment": environment_metadata(),
        "length": length,
        "rows": length * (length + 1) // 2,
    }
    report["scalar_oracle"] = time_oracle(length)
    report["parity_checked"] = True
    report["fresh"] = time_builds(length, fresh=True)
    report["fresh"]["speedup_vs_oracle"] = round(
        report["scalar_oracle"]["best_ms"] / report["fresh"]["best_ms"], 2
    )
    report["warm"] = time_builds(length, fresh=False)
    report["warm"]["speedup"] = round(
        report["fresh"]["best_ms"] / report["warm"]["best_ms"], 2
    )
    report["dirty_slice"] = time_dirty_slice(length)
    if not smoke:
        report["fold_split"] = {
            str(split): time_fold_split(split) for split in FOLD_SPLIT_LENGTHS
        }
    return report


def check_smoke(report: dict) -> list[str]:
    """CI guard: fresh builds must beat the scalar oracle, warm rebuilds
    and dirty slices must beat full builds."""
    failures = []
    fresh = report["fresh"]["speedup_vs_oracle"]
    if fresh < SMOKE_MIN_SPEEDUP:
        failures.append(
            f"fresh kernel build only {fresh:.2f}x faster than the scalar "
            f"oracle on length-{report['length']} builds (smoke floor "
            f"{SMOKE_MIN_SPEEDUP}x)"
        )
    warm = report["warm"]["speedup"]
    if warm < WARM_MIN_SPEEDUP:
        failures.append(
            f"warm-rebuild speedup {warm:.2f}x over fresh builds below the "
            f"persistent-lowering floor ({WARM_MIN_SPEEDUP}x)"
        )
    dirty = report["dirty_slice"]
    if dirty["speedup"] < DIRTY_MIN_SPEEDUP:
        failures.append(
            f"dirty-slice recompute speedup {dirty['speedup']:.2f}x over "
            f"full rebuilds below the smoke floor ({DIRTY_MIN_SPEEDUP}x)"
        )
    if dirty["rows_repriced"] == 0:
        failures.append("dirty-slice chain priced zero rows on the kernel")
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
