"""Analytic-vs-measured validation (our addition; the paper is analytic only).

Builds a synthetic database, derives its true statistics, and compares the
Section 3 cost formulas against page accesses counted by the operational
simulator, for queries, inserts and deletes under three configurations.
"""

from benchmarks.conftest import write_report
from repro.backend import render_validation, validate_configuration
from repro.core.configuration import IndexConfiguration
from repro.costmodel.params import ClassStats
from repro.organizations import IndexOrganization
from repro.synth import LevelSpec, linear_path_schema, populate_path_database

MX = IndexOrganization.MX
MIX = IndexOrganization.MIX
NIX = IndexOrganization.NIX

CONFIGS = [
    IndexConfiguration.whole_path(3, NIX),
    IndexConfiguration.whole_path(3, MIX),
    IndexConfiguration.of((1, 1, MX), (2, 3, NIX)),
]

SPECS = {
    "A": ClassStats(objects=2000, distinct=500, fanout=2),
    "B": ClassStats(objects=300, distinct=100, fanout=1),
    "BSub1": ClassStats(objects=100, distinct=60, fanout=1),
    "BSub2": ClassStats(objects=100, distinct=60, fanout=1),
    "C": ClassStats(objects=200, distinct=80, fanout=2),
}


def build_world(seed: int):
    schema, path = linear_path_schema(
        [
            LevelSpec("A", multi_valued=True),
            LevelSpec("B", subclasses=2),
            LevelSpec("C", multi_valued=True),
        ]
    )
    return schema, path, populate_path_database(schema, path, SPECS, seed=seed)


def run_validation():
    sections = []
    all_query_ratios = []
    all_update_ratios = []
    for config in CONFIGS:
        _schema, path, database = build_world(seed=7)
        rows = validate_configuration(
            database, path, config, samples=8, seed=13, include_updates=True
        )
        sections.append(config.render(path))
        sections.append(render_validation(rows))
        sections.append("")
        for row in rows:
            if row.operation == "query":
                all_query_ratios.append(row.ratio)
            else:
                all_update_ratios.append(row.ratio)
    return sections, all_query_ratios, all_update_ratios


def test_validation(benchmark):
    sections, query_ratios, update_ratios = benchmark.pedantic(
        run_validation, rounds=1, iterations=1
    )
    # Queries: the analytic model is tight.
    assert all(0.4 <= ratio <= 2.5 for ratio in query_ratios), query_ratios
    # Updates: expectation-vs-sample and lazy-delete slack allowed.
    assert all(0.2 <= ratio <= 5.0 for ratio in update_ratios), update_ratios
    header = (
        "Analytic cost model vs measured page accesses\n"
        "(ratio = measured / analytic; 1.0 is perfect)\n"
    )
    write_report("validation", header + "\n".join(sections))
