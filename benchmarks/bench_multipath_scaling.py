"""Many-long-paths joint selection: the beam-backed multipath at scale.

Before the beam rewiring, ``optimize_multipath`` enumerated all
``2^(n-1)`` partitions per path — infeasible beyond length ~20 and
hopeless for a fleet of them. The k-best candidate generator caps the
per-path work at ``O(n² · r · width)``, so joint selection over eight
overlapping paths of length 30–40 (suffixes of one 37-level composition
chain, which is what makes sharing matter) completes in seconds. The
measurements — and a storage-budget sweep over the same fleet — are
recorded in ``benchmarks/results/BENCH_multipath.json`` so successive
PRs compare machine-readable numbers instead of prose.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import time

from benchmarks.conftest import RESULTS_DIR, write_report
from benchmarks.env_meta import environment_metadata
from repro.core.cost_matrix import CostMatrix
from repro.core.multipath import PathWorkload, build_fleet, optimize_multipath
from repro.costmodel.params import ClassStats, PathStatistics
from repro.model.path import Path
from repro.organizations import CONFIGURABLE_ORGANIZATIONS, EXTENDED_ORGANIZATIONS
from repro.reporting.tables import ascii_table, multipath_table
from repro.synth import LevelSpec, linear_path_schema
from repro.workload.load import LoadDistribution

JSON_NAME = "BENCH_multipath.json"

#: The acceptance bound: the eight-path fleet must select in under this.
FLEET_LIMIT_SECONDS = 10.0


def chain_fleet(chain_length: int, paths: int):
    """``paths`` suffix paths of one linear chain, longest (full) first.

    Path ``i`` starts at level ``L{i}``, so every pair of paths overlaps
    on the shared tail — the regime the Section 6 extension is about.
    """
    levels = [LevelSpec(f"L{i}") for i in range(chain_length)]
    schema, full_path = linear_path_schema(levels)
    per_class = {}
    objects = 200_000
    for position in range(1, chain_length + 1):
        name = full_path.class_at(position)
        per_class[name] = ClassStats(
            objects=objects, distinct=max(10, objects // 5), fanout=1
        )
        objects = max(100, int(objects // 1.4))
    workloads = []
    for start in range(paths):
        if start == 0:
            path = full_path
        else:
            expression = ".".join(
                [f"L{start}"]
                + [f"ref{i}" for i in range(start + 1, chain_length)]
                + ["label"]
            )
            path = Path.parse(schema, expression)
        stats = PathStatistics(
            path,
            {name: per_class[name] for name in path.scope},
        )
        load = LoadDistribution.uniform(
            path, query=0.2, insert=0.05, delete=0.05
        )
        workloads.append(PathWorkload(stats=stats, load=load))
    return workloads


def measure_fleet(
    chain_length: int,
    paths: int,
    beam_width: int | None,
    organizations=None,
    budget_pages: float | None = None,
) -> dict:
    """Matrices + joint selection wall time for one fleet scenario.

    The matrices are built as one fleet (``build_fleet``), the build
    ``optimize_multipath`` runs on these inputs: the chain's suffix paths
    price the rows they share with the longest path once.
    """
    workloads = chain_fleet(chain_length, paths)
    started = time.perf_counter()
    matrices = build_fleet(
        workloads,
        lambda w: CostMatrix.compute(
            w.stats,
            w.load,
            organizations=organizations
            if organizations is not None
            else CONFIGURABLE_ORGANIZATIONS,
        ),
    )
    matrix_seconds = time.perf_counter() - started

    started = time.perf_counter()
    result = optimize_multipath(
        workloads,
        matrices=matrices,
        beam_width=beam_width,
        budget_pages=budget_pages,
    )
    selection_seconds = time.perf_counter() - started
    return {
        "paths": paths,
        "lengths": [w.stats.length for w in workloads],
        "beam_width": beam_width,
        "budget_pages": budget_pages,
        "matrix_s": round(matrix_seconds, 3),
        "selection_s": round(selection_seconds, 3),
        "total_s": round(matrix_seconds + selection_seconds, 3),
        "total_cost": round(result.total_cost, 2),
        "independent_cost": round(result.independent_cost, 2),
        "shared_savings": round(result.shared_savings, 2),
        "storage_pages": round(result.storage_pages, 1),
        "exact": result.exact,
        "_workloads": workloads,
        "_result": result,
    }


def run_scaling():
    """The scenario ladder: exact parity point, then the long fleets."""
    scenarios = [
        # Small enough for the exact oracle (candidate enumeration and
        # joint cross product both exhaustive): the parity reference.
        measure_fleet(chain_length=6, paths=2, beam_width=None),
        # Mid-size fleet, beam regime.
        measure_fleet(chain_length=20, paths=4, beam_width=16),
        # The headline: eight overlapping paths of length 30–37.
        measure_fleet(chain_length=37, paths=8, beam_width=16),
    ]
    # Storage-budget sweep over the eight-path fleet (NONE included so
    # every budget is feasible).
    budget_reference = measure_fleet(
        chain_length=37,
        paths=8,
        beam_width=16,
        organizations=EXTENDED_ORGANIZATIONS,
        budget_pages=10**12,
    )
    budget_rows = []
    for fraction in (0.0, 0.25, 0.5, 1.0):
        budget = budget_reference["storage_pages"] * fraction
        entry = measure_fleet(
            chain_length=37,
            paths=8,
            beam_width=16,
            organizations=EXTENDED_ORGANIZATIONS,
            budget_pages=budget,
        )
        budget_rows.append(entry)
    return scenarios, budget_rows


def test_multipath_scaling(benchmark):
    scenarios, budget_rows = benchmark.pedantic(
        run_scaling, rounds=1, iterations=1
    )

    assert scenarios[0]["exact"], "the reference scenario must be exact"

    fleet = scenarios[-1]
    assert fleet["paths"] == 8
    assert min(fleet["lengths"]) == 30 and max(fleet["lengths"]) == 37
    assert fleet["total_s"] < FLEET_LIMIT_SECONDS, (
        f"eight-path joint selection took {fleet['total_s']:.1f} s "
        f"(limit {FLEET_LIMIT_SECONDS:.0f} s)"
    )
    # Overlapping suffixes must actually share physical indexes.
    assert fleet["shared_savings"] > 0.0

    # The budget sweep degrades monotonically as the budget tightens.
    budget_costs = [entry["total_cost"] for entry in budget_rows]
    assert budget_costs == sorted(budget_costs, reverse=True)
    for entry in budget_rows:
        assert entry["storage_pages"] <= entry["budget_pages"] + 1e-9

    table = ascii_table(
        ["paths", "lengths", "beam", "matrix s", "select s", "joint cost", "savings"],
        [
            [
                entry["paths"],
                f"{min(entry['lengths'])}-{max(entry['lengths'])}",
                entry["beam_width"] or "exact",
                entry["matrix_s"],
                entry["selection_s"],
                entry["total_cost"],
                entry["shared_savings"],
            ]
            for entry in scenarios
        ],
        title="Beam-backed joint selection over overlapping suffix paths",
    )
    budget_table = ascii_table(
        ["budget pages", "used pages", "joint cost"],
        [
            [
                f"{entry['budget_pages']:.0f}",
                f"{entry['storage_pages']:.0f}",
                entry["total_cost"],
            ]
            for entry in budget_rows
        ],
        title="Storage-budget sweep (8 paths, NONE organization included)",
    )
    fleet_report = multipath_table(
        [w.stats.path for w in fleet["_workloads"]], fleet["_result"]
    )
    write_report(
        "multipath_scaling",
        "\n\n".join([table, budget_table, fleet_report]),
    )

    payload = {
        "benchmark": "multipath",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count() or 1,
        "environment": environment_metadata(),
        "fleet_limit_s": FLEET_LIMIT_SECONDS,
        "measurements": [
            {k: v for k, v in entry.items() if not k.startswith("_")}
            for entry in scenarios
        ],
        "budget_sweep": [
            {k: v for k, v in entry.items() if not k.startswith("_")}
            for entry in budget_rows
        ],
    }
    json_path = pathlib.Path(RESULTS_DIR) / JSON_NAME
    json_path.parent.mkdir(parents=True, exist_ok=True)
    json_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
