"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.core.cost_matrix import CostMatrix
from repro.costmodel.params import ClassStats, CostModelConfig, PathStatistics
from repro.costmodel.subpath import subpath_processing_cost
from repro.model.examples import (
    build_vehicle_schema,
    pe_path,
    pexa_path,
    populate_vehicle_database,
)
from repro.organizations import CONFIGURABLE_ORGANIZATIONS, IndexOrganization
from repro.paper import figure6_matrix, figure7_load, figure7_statistics
from repro.storage.pager import Pager
from repro.storage.sizes import SizeModel
from repro.synth import LevelSpec, linear_path_schema, populate_path_database
from repro.workload.generator import WorkloadGenerator


@pytest.fixture(scope="session")
def vehicle_schema():
    """The Figure 1 schema (immutable; session-scoped)."""
    return build_vehicle_schema()


@pytest.fixture()
def vehicle_db(vehicle_schema):
    """A fresh Figure 2 database per test."""
    return populate_vehicle_database(vehicle_schema)


@pytest.fixture(scope="session")
def pexa(vehicle_schema):
    """The Example 5.1 path ``Person.owns.man.divisions.name``."""
    return pexa_path(vehicle_schema)


@pytest.fixture(scope="session")
def pe(vehicle_schema):
    """The Example 2.1 path ``Person.owns.man.name``."""
    return pe_path(vehicle_schema)


@pytest.fixture(scope="session")
def fig7_stats():
    """Figure 7 statistics."""
    return figure7_statistics()


@pytest.fixture(scope="session")
def fig7_load():
    """Figure 7 workload."""
    return figure7_load()


@pytest.fixture(scope="session")
def fig6():
    """The Figure 6 hypothetical cost matrix."""
    return figure6_matrix()


@pytest.fixture()
def pager():
    """A fresh 4 KiB pager."""
    return Pager(page_size=4096)


@pytest.fixture()
def sizes():
    """Default physical constants."""
    return SizeModel()


@pytest.fixture(scope="session")
def small_synth():
    """A small synthetic 3-level schema/database with inheritance.

    Session-scoped for read-only use; tests that mutate must build their
    own via ``make_small_synth``.
    """
    return make_small_synth()


def make_small_synth(seed: int = 1):
    """Build the standard small synthetic world (schema, path, db, specs)."""
    schema, path = linear_path_schema(
        [
            LevelSpec("A", subclasses=0, multi_valued=True),
            LevelSpec("B", subclasses=2, multi_valued=False),
            LevelSpec("C", subclasses=0, multi_valued=True),
        ]
    )
    specs = {
        "A": ClassStats(objects=400, distinct=150, fanout=2),
        "B": ClassStats(objects=120, distinct=50, fanout=1),
        "BSub1": ClassStats(objects=40, distinct=25, fanout=1),
        "BSub2": ClassStats(objects=40, distinct=25, fanout=1),
        "C": ClassStats(objects=80, distinct=30, fanout=2),
    }
    database = populate_path_database(schema, path, specs, seed=seed)
    return schema, path, database, specs


def make_nix_heavy_world(length, seed):
    """A deterministic linear path with 0/1/2 subclasses in equal thirds,
    a quarter of the levels set-valued (fan-out 1.5-3), 2e4-2e5 objects
    decaying 1.5-4x per level, and a 2:1 query:update mixed load — the
    shape of the benchmark harness's worlds."""
    rng = random.Random(seed)
    subclasses = [position % 3 for position in range(length)]
    rng.shuffle(subclasses)
    levels = [
        LevelSpec(
            f"L{index}",
            subclasses=subclasses[index],
            multi_valued=rng.random() < 0.25,
        )
        for index in range(length)
    ]
    _schema, path = linear_path_schema(levels)
    per_class = {}
    objects = rng.uniform(2e4, 2e5)
    for position, spec in enumerate(levels, start=1):
        for name in path.hierarchy_at(position):
            share = 1.0 if name == spec.name else rng.uniform(0.1, 0.5)
            count = max(50, round(objects * share))
            fanout = rng.uniform(1.5, 3.0) if spec.multi_valued else 1.0
            distinct = max(10, round(count * fanout / rng.uniform(2.0, 10.0)))
            per_class[name] = ClassStats(
                objects=count, distinct=distinct, fanout=fanout
            )
        objects = max(100.0, objects / rng.uniform(1.5, 4.0))
    stats = PathStatistics(path, per_class)
    load = WorkloadGenerator(rng.randrange(2**31)).mixed(
        path, query_weight=2.0, update_weight=1.0
    )
    return stats, load


def make_suffix_fleet(seed, chain_length, paths, prefix="L"):
    """``paths`` overlapping suffix paths of one seeded linear chain.

    Path ``i`` starts at level ``i`` and every path ends at the chain's
    last attribute, so the paths share their tails' physical subpaths —
    the multi-path benchmark's fleet shape: 1.5e5-2.5e5 objects decaying
    1.35-1.45x per level and a 2:1 query:update mixed load per path.
    """
    from repro.core.multipath import PathWorkload
    from repro.model.path import Path

    rng = random.Random(seed)
    levels = [LevelSpec(f"{prefix}{index}") for index in range(chain_length)]
    schema, full_path = linear_path_schema(levels)
    per_class = {}
    objects = rng.uniform(1.5e5, 2.5e5)
    for position in range(1, chain_length + 1):
        count = round(objects)
        per_class[full_path.class_at(position)] = ClassStats(
            objects=count, distinct=max(10, round(count / rng.uniform(3.0, 6.0)))
        )
        objects = max(100.0, objects / rng.uniform(1.35, 1.45))
    fleet = []
    for start in range(paths):
        path = full_path
        if start:
            path = Path.parse(
                schema,
                ".".join(
                    [f"{prefix}{start}"]
                    + [f"ref{index}" for index in range(start + 1, chain_length)]
                    + ["label"]
                ),
            )
        stats = PathStatistics(
            path, {name: per_class[name] for name in path.scope}
        )
        load = WorkloadGenerator(rng.randrange(2**31)).mixed(
            path, query_weight=2.0, update_weight=1.0
        )
        fleet.append(PathWorkload(stats=stats, load=load))
    return fleet


@pytest.fixture(scope="session")
def small_synth_stats(small_synth):
    """Derived statistics of the small synthetic database."""
    from repro.synth.stats import derive_path_statistics

    _schema, path, database, _specs = small_synth
    return derive_path_statistics(database, path)


def assert_same_bits(left: CostMatrix, right: CostMatrix) -> None:
    """Two computed matrices hold bit-identical component arrays and
    row minima."""
    for name, mine, theirs in zip(
        left._costs._fields, left._costs, right._costs
    ):
        assert mine.tobytes() == theirs.tobytes(), name
    assert left._row_min_cost == right._row_min_cost
    assert left._row_min_org == right._row_min_org


def oracle_matrix(
    stats,
    load,
    organizations=CONFIGURABLE_ORGANIZATIONS,
    include_noindex=False,
    range_selectivity=None,
):
    """The cost matrix priced row by row through the scalar cost model.

    Every entry is one :func:`subpath_processing_cost` call — the
    paper-faithful oracle the columnar kernel behind
    :meth:`CostMatrix.compute` must match bit for bit. Arguments mirror
    :meth:`CostMatrix.compute`.
    """
    if include_noindex and IndexOrganization.NONE not in organizations:
        organizations = (*organizations, IndexOrganization.NONE)
    entries = {}
    breakdowns = {}
    for start in range(1, stats.length + 1):
        for end in range(start, stats.length + 1):
            row = {
                organization: subpath_processing_cost(
                    stats,
                    load,
                    start,
                    end,
                    organization,
                    range_selectivity=range_selectivity,
                )
                for organization in organizations
            }
            breakdowns[(start, end)] = row
            entries[(start, end)] = {
                organization: cost.total for organization, cost in row.items()
            }
    return CostMatrix(stats.length, tuple(organizations), entries, breakdowns)
