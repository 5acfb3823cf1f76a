"""Tests for the fast Cost_Matrix evaluation layer (PR 2).

Covers the incremental :meth:`CostMatrix.recompute` (exact dirty-row
analysis, equality with a fresh compute under randomized perturbations),
the worker-process parity guarantee, kernel builds over warm or seeded
caches against the scalar oracle, and the tie-tolerant organization
ranking.
"""

import dataclasses

import pytest
from conftest import assert_same_bits, oracle_matrix
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost_matrix import CostMatrix, TIE_RELATIVE_TOLERANCE
from repro.costmodel.btree_shape import build_shape
from repro.costmodel.params import ClassStats, PathStatistics
from repro.errors import OptimizerError
from repro.organizations import IndexOrganization
from repro.synth import LevelSpec, linear_path_schema
from repro.workload.load import LoadDistribution, LoadTriplet

MX = IndexOrganization.MX
MIX = IndexOrganization.MIX
NIX = IndexOrganization.NIX


def make_world(length=5, subclasses=(0, 1, 0, 2, 0)):
    levels = [
        LevelSpec(f"L{i}", subclasses=subclasses[i % len(subclasses)])
        for i in range(length)
    ]
    _schema, path = linear_path_schema(levels)
    per_class = {}
    objects = 40_000
    for position in range(1, length + 1):
        for member in path.hierarchy_at(position):
            per_class[member] = ClassStats(
                objects=objects, distinct=max(10, objects // 6), fanout=1.0
            )
        objects = max(50, objects // 5)
    stats = PathStatistics(path, per_class)
    load = LoadDistribution.uniform(path, query=0.3, insert=0.1, delete=0.05)
    return stats, load


def assert_matrices_identical(left: CostMatrix, right: CostMatrix) -> None:
    assert left.length == right.length
    assert left.organizations == right.organizations
    for start, end in left.rows():
        for organization in left.organizations:
            assert left.cost(start, end, organization) == right.cost(
                start, end, organization
            ), (start, end, organization)
        left_min = left.min_cost(start, end)
        right_min = right.min_cost(start, end)
        assert left_min.cost == right_min.cost
        assert left_min.organization is right_min.organization


class TestCachesAgainstTheOracle:
    def test_cached_and_uncached_evaluations_identical(self):
        """A kernel build over warm caches against the scalar oracle over
        fresh statistics."""
        stats, load = make_world()
        CostMatrix.compute(stats, load)
        warm_matrix = CostMatrix.compute(stats, load)
        cold_matrix = oracle_matrix(make_world()[0], load)
        assert_matrices_identical(warm_matrix, cold_matrix)

    def test_kernel_ignores_scalar_shape_cache(self):
        """The kernel derives its own MX and MIX shapes: wrong shapes
        seeded under the scalar models' keys change nothing of a kernel
        build, which still equals the oracle over fresh statistics."""
        stats, load = make_world()
        root = stats.path.class_at(1)
        wrong = build_shape(
            record_count=1.0,
            record_length=8 * stats.config.sizes.page_size,
            key_size=8,
            sizes=stats.config.sizes,
        )
        stats.cached_shape(("mx", 1, root), lambda: wrong)
        stats.cached_shape(("mix", 1), lambda: wrong)
        assert_same_bits(
            CostMatrix.compute(stats, load), oracle_matrix(make_world()[0], load)
        )


class TestWorkersParity:
    def test_workers_output_identical_to_serial(self):
        stats, load = make_world()
        serial = CostMatrix.compute(stats, load, workers=0)
        parallel = CostMatrix.compute(make_world()[0], load, workers=2)
        assert_matrices_identical(serial, parallel)
        # Breakdowns survive the round-trip through worker processes.
        breakdown = parallel.breakdown(1, 2, NIX)
        assert breakdown is not None
        assert breakdown.total == serial.breakdown(1, 2, NIX).total

    def test_negative_workers_rejected(self):
        stats, load = make_world(length=2, subclasses=(0, 0))
        with pytest.raises(OptimizerError):
            CostMatrix.compute(stats, load, workers=-1)

    def test_workers_matrix_supports_recompute(self):
        stats, load = make_world()
        matrix = CostMatrix.compute(stats, load, workers=2)
        new_load = perturb_load(load, "L0", "insert", 2.0)
        assert_matrices_identical(
            matrix.recompute(load=new_load),
            CostMatrix.compute(stats, new_load),
        )


def perturb_load(load, class_name, component, factor):
    triplets = {}
    for name, triplet in load.items():
        if name == class_name:
            values = {
                "query": triplet.query,
                "insert": triplet.insert,
                "delete": triplet.delete,
            }
            values[component] = values[component] * factor + 0.01
            triplet = LoadTriplet(**values)
        triplets[name] = triplet
    return LoadDistribution(load.path, triplets)


def perturb_stats(stats, class_name, factor):
    per_class = {}
    for position in range(1, stats.length + 1):
        for member in stats.members(position):
            current = stats.stats_of(member)
            if member == class_name:
                current = ClassStats(
                    objects=current.objects * factor,
                    distinct=max(1.0, current.distinct * factor),
                    fanout=current.fanout,
                )
            per_class[member] = current
    return PathStatistics(stats.path, per_class, stats.config)


class TestRecompute:
    def test_literal_matrix_rejected(self):
        matrix = CostMatrix.from_values(
            1, {(1, 1): {MX: 1.0, MIX: 2.0, NIX: 3.0}}
        )
        with pytest.raises(OptimizerError, match="literal"):
            matrix.recompute()

    def test_different_path_rejected(self):
        stats, load = make_world()
        other_stats, other_load = make_world(length=3, subclasses=(0, 0, 0))
        matrix = CostMatrix.compute(stats, load)
        with pytest.raises(OptimizerError, match="same path"):
            matrix.recompute(stats=other_stats, load=other_load)

    def test_noop_recompute_is_identical(self):
        stats, load = make_world()
        matrix = CostMatrix.compute(stats, load)
        assert_matrices_identical(matrix, matrix.recompute())

    @pytest.mark.parametrize("component", ["query", "insert", "delete"])
    def test_single_class_load_change_matches_fresh_compute(self, component):
        stats, load = make_world()
        matrix = CostMatrix.compute(stats, load)
        for class_name in ("L0", "L2", "L4", "L3s1"):
            new_load = perturb_load(load, class_name, component, 3.0)
            assert_matrices_identical(
                matrix.recompute(load=new_load),
                CostMatrix.compute(stats, new_load),
            )

    def test_stats_change_matches_fresh_compute(self):
        stats, load = make_world()
        matrix = CostMatrix.compute(stats, load)
        new_stats = perturb_stats(stats, "L2", 1.5)
        assert_matrices_identical(
            matrix.recompute(stats=new_stats),
            CostMatrix.compute(new_stats, load),
        )

    def test_config_change_falls_back_to_full_recompute(self):
        stats, load = make_world()
        matrix = CostMatrix.compute(stats, load)
        new_config = dataclasses.replace(
            stats.config, pr_mx=2.0, clamp_cardinalities=False
        )
        new_stats = PathStatistics(
            stats.path,
            {
                member: stats.stats_of(member)
                for position in range(1, stats.length + 1)
                for member in stats.members(position)
            },
            new_config,
        )
        assert matrix._dirty_rows(new_stats, load) is None
        assert_matrices_identical(
            matrix.recompute(stats=new_stats),
            CostMatrix.compute(new_stats, load),
        )

    def test_report_partitions_the_dirty_union(self):
        """RecomputeReport's re-priced + patched sets are disjoint and
        together equal the _dirty_rows union; delete-only changes route
        the CMD rows through the patch set."""
        stats, load = make_world()
        matrix = CostMatrix.compute(stats, load)
        new_load = perturb_load(load, "L2", "delete", 2.0)
        union = matrix._dirty_rows(stats, new_load)
        report = matrix.recompute(load=new_load).recompute_report
        recomputed = set(report.recomputed_rows)
        patched = set(report.patched_rows)
        assert recomputed | patched == union
        assert not recomputed & patched
        assert patched == {(s, 2) for s in range(1, 3)}

    def test_dirty_rows_are_exact_for_load_changes(self):
        stats, load = make_world()
        matrix = CostMatrix.compute(stats, load)
        length = stats.length
        # L2 is the (root) class at position 3.
        position = 3

        insert_dirty = matrix._dirty_rows(
            stats, perturb_load(load, "L2", "insert", 2.0)
        )
        assert insert_dirty == {
            (s, e)
            for s in range(1, position + 1)
            for e in range(position, length + 1)
        }

        query_dirty = matrix._dirty_rows(
            stats, perturb_load(load, "L2", "query", 2.0)
        )
        assert query_dirty == {
            (s, e)
            for e in range(position, length + 1)
            for s in range(1, e + 1)
        }

        delete_dirty = matrix._dirty_rows(
            stats, perturb_load(load, "L2", "delete", 2.0)
        )
        covering = {
            (s, e)
            for s in range(1, position + 1)
            for e in range(position, length + 1)
        }
        cmd_rows = {(s, position - 1) for s in range(1, position)}
        assert delete_dirty == covering | cmd_rows

    def test_dirty_rows_for_stats_change_spare_later_subpaths(self):
        stats, load = make_world()
        matrix = CostMatrix.compute(stats, load)
        new_stats = perturb_stats(stats, "L2", 2.0)
        dirty = matrix._dirty_rows(new_stats, load)
        # Position 3 changed: every row starting at or before 3 is dirty
        # (coverage or probe chain); rows starting after 3 are clean.
        assert dirty == {
            (s, e)
            for s in range(1, 4)
            for e in range(s, stats.length + 1)
        }

    def test_range_selectivity_is_preserved(self):
        stats, load = make_world()
        matrix = CostMatrix.compute(stats, load, range_selectivity=0.2)
        new_load = perturb_load(load, "L1", "query", 2.0)
        assert_matrices_identical(
            matrix.recompute(load=new_load),
            CostMatrix.compute(stats, new_load, range_selectivity=0.2),
        )


@st.composite
def perturbation_worlds(draw):
    length = draw(st.integers(min_value=2, max_value=5))
    subclasses = tuple(
        draw(st.integers(min_value=0, max_value=2)) for _ in range(length)
    )
    stats, load = make_world(length=length, subclasses=subclasses)
    scope = [
        member
        for position in range(1, length + 1)
        for member in stats.members(position)
    ]
    kind = draw(st.sampled_from(["query", "insert", "delete", "stats", "both"]))
    target = draw(st.sampled_from(scope))
    factor = draw(st.floats(min_value=0.0, max_value=8.0))
    new_load = load
    new_stats = stats
    if kind in ("query", "insert", "delete"):
        new_load = perturb_load(load, target, kind, factor)
    elif kind == "stats":
        new_stats = perturb_stats(stats, target, 1.0 + factor)
    else:
        new_load = perturb_load(load, target, "delete", factor)
        new_stats = perturb_stats(
            stats, draw(st.sampled_from(scope)), 1.0 + factor
        )
    return stats, load, new_stats, new_load


class TestRecomputeProperty:
    @given(world=perturbation_worlds())
    @settings(max_examples=40, deadline=None)
    def test_recompute_equals_fresh_compute(self, world):
        stats, load, new_stats, new_load = world
        matrix = CostMatrix.compute(stats, load)
        incremental = matrix.recompute(stats=new_stats, load=new_load)
        fresh = CostMatrix.compute(new_stats, new_load)
        assert_matrices_identical(incremental, fresh)
        # The result is itself a computed matrix: chain another what-if.
        chained = incremental.recompute(load=load)
        assert_matrices_identical(chained, CostMatrix.compute(new_stats, load))


def reference_classify_dirty(matrix, new_stats, new_load):
    """The per-change closure loops ``_classify_dirty`` replaced: the oracle.

    Every changed statistic or frequency adds its whole row reach, one
    tuple at a time; the CMD candidates not dirtied otherwise are patched.
    """
    old_stats = matrix._stats
    old_load = matrix._load
    length = matrix.length
    dirty = set()
    cmd_candidates = set()

    def rows_with_start_at_most(p):
        for start in range(1, min(p, length) + 1):
            for end in range(start, length + 1):
                dirty.add((start, end))

    def rows_covering(p):
        for start in range(1, p + 1):
            for end in range(p, length + 1):
                dirty.add((start, end))

    def rows_ending_at_least(p):
        for end in range(p, length + 1):
            for start in range(1, end + 1):
                dirty.add((start, end))

    if new_stats is not old_stats:
        if new_stats.config != old_stats.config:
            return None
        for position in range(1, length + 1):
            if new_stats.members(position) != old_stats.members(position):
                return None
        for position in range(1, length + 1):
            for member in new_stats.members(position):
                if new_stats.stats_of(member) != old_stats.stats_of(member):
                    rows_with_start_at_most(position)

    if new_load is not old_load:
        for position in range(1, length + 1):
            for member in old_stats.members(position):
                old_triplet = old_load.triplet(member)
                new_triplet = new_load.triplet(member)
                if new_triplet.query != old_triplet.query:
                    rows_ending_at_least(position)
                if new_triplet.insert != old_triplet.insert:
                    rows_covering(position)
                if new_triplet.delete != old_triplet.delete:
                    rows_covering(position)
                    if position >= 2:
                        for start in range(1, position):
                            cmd_candidates.add((start, position - 1))
    return dirty, cmd_candidates - dirty


@st.composite
def multi_class_deltas(draw):
    """A computed matrix and new inputs changing several classes at once."""
    length = draw(st.integers(min_value=1, max_value=7))
    subclasses = tuple(
        draw(st.integers(min_value=0, max_value=2)) for _ in range(length)
    )
    stats, load = make_world(length=length, subclasses=subclasses)
    scope = list(stats.path.scope)
    changes = draw(
        st.lists(
            st.tuples(
                st.sampled_from(scope),
                st.sampled_from(["query", "insert", "delete", "stats"]),
            ),
            max_size=8,
        )
    )
    new_stats, new_load = stats, load
    for class_name, component in changes:
        if component == "stats":
            new_stats = perturb_stats(new_stats, class_name, 2.0)
        else:
            new_load = perturb_load(new_load, class_name, component, 2.0)
    # New objects with unchanged values must classify nothing as dirty.
    if draw(st.booleans()):
        new_load = LoadDistribution(new_load.path, dict(new_load.items()))
    return CostMatrix.compute(stats, load), new_stats, new_load


class TestClassifyDirtyProperty:
    @given(world=multi_class_deltas())
    @settings(max_examples=60, deadline=None)
    def test_classification_equals_per_change_reference(self, world):
        matrix, new_stats, new_load = world
        assert matrix._classify_dirty(new_stats, new_load) == (
            reference_classify_dirty(matrix, new_stats, new_load)
        )


class TestRankedOrganizations:
    def test_ranking_is_ascending_and_complete(self):
        stats, load = make_world()
        matrix = CostMatrix.compute(stats, load)
        for start, end in matrix.rows():
            ranked = matrix.ranked_organizations(start, end)
            assert set(ranked) == set(matrix.organizations)
            costs = [matrix.cost(start, end, org) for org in ranked]
            for earlier, later in zip(costs, costs[1:]):
                assert earlier <= later or (later - earlier) <= (
                    TIE_RELATIVE_TOLERANCE * max(abs(earlier), abs(later))
                )
            assert ranked[0] is matrix.min_cost(start, end).organization

    def test_first_ranked_matches_min_cost_under_chained_near_ties(self):
        """Pairwise-adjacent ties must not pull a non-minimum to the top:
        col0 and col2 differ by more than the tolerance, so Min_Cost picks
        col2 and the ranking must lead with it (a transitive tie chain
        through col1 would have promoted col0/col1 instead)."""
        values = {
            (1, 1): {MX: 1.0 + 1.5e-9, MIX: 1.0 + 0.8e-9, NIX: 1.0}
        }
        matrix = CostMatrix.from_values(1, values)
        assert matrix.min_cost(1, 1).organization is NIX
        ranked = matrix.ranked_organizations(1, 1)
        assert ranked[0] is NIX
        assert matrix.ranked_organizations(1, 1, limit=1) == (NIX,)

    def test_near_ties_rank_by_column_order(self):
        values = {
            (1, 1): {MX: 10.0 + 5e-10, MIX: 10.0, NIX: 10.0 + 2e-10}
        }
        matrix = CostMatrix.from_values(1, values)
        assert matrix.ranked_organizations(1, 1) == (MX, MIX, NIX)
        assert matrix.ranked_organizations(1, 1, limit=2) == (MX, MIX)

    def test_clear_winner_ranks_first_regardless_of_column(self):
        values = {(1, 1): {MX: 30.0, MIX: 10.0, NIX: 20.0}}
        matrix = CostMatrix.from_values(1, values)
        assert matrix.ranked_organizations(1, 1) == (MIX, NIX, MX)

    def test_limit_bounds(self):
        values = {(1, 1): {MX: 3.0, MIX: 2.0, NIX: 1.0}}
        matrix = CostMatrix.from_values(1, values)
        assert matrix.ranked_organizations(1, 1, limit=10) == (NIX, MIX, MX)
        with pytest.raises(OptimizerError):
            matrix.ranked_organizations(1, 2)
