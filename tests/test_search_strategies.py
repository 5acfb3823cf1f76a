"""Tests for the ``repro.search`` subsystem.

Covers the registry, the unified result type, the shared partition
enumeration, and — the load-bearing property — parity: every registered
strategy returns the same optimal cost on randomized synthetic
statistics/workloads.
"""

import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost_matrix import CostMatrix
from repro.costmodel.params import ClassStats, PathStatistics
from repro.errors import OptimizerError
from repro.organizations import IndexOrganization
from repro.resilience import degraded_search
from repro.search import (
    SearchResult,
    SearchStrategy,
    available_strategies,
    blocks_from_mask,
    configuration_count,
    enumerate_first_pieces,
    enumerate_partitions,
    get_strategy,
    partition_count,
    top_configurations,
    validate_partition,
)
from repro.synth import LevelSpec, linear_path_schema
from repro.workload.load import LoadDistribution, LoadTriplet

MX = IndexOrganization.MX
MIX = IndexOrganization.MIX
NIX = IndexOrganization.NIX

EXACT_STRATEGIES = (
    "branch_and_bound",
    "exhaustive",
    "dynamic_program",
    "incremental_dynamic_program",
)


def synth_inputs(length: int, seed: int) -> tuple[PathStatistics, LoadDistribution]:
    """Randomized synthetic statistics and workload for one linear path."""
    rng = random.Random(seed)
    levels = [
        LevelSpec(f"L{i}", multi_valued=rng.random() < 0.5)
        for i in range(length)
    ]
    _schema, path = linear_path_schema(levels)
    per_class = {}
    objects = rng.randint(1_000, 50_000)
    for position in range(1, length + 1):
        name = path.class_at(position)
        per_class[name] = ClassStats(
            objects=objects,
            distinct=max(5, objects // rng.randint(2, 20)),
            fanout=rng.choice([1, 1, 2, 3]),
        )
        objects = max(20, objects // rng.randint(2, 8))
    stats = PathStatistics(path, per_class)
    load = LoadDistribution(
        path,
        {
            name: LoadTriplet(
                query=rng.uniform(0, 0.5),
                insert=rng.uniform(0, 0.2),
                delete=rng.uniform(0, 0.2),
            )
            for name in path.scope
        },
    )
    return stats, load


def synth_matrix(length: int, seed: int) -> CostMatrix:
    """A cost matrix from randomized synthetic statistics and workload."""
    return CostMatrix.compute(*synth_inputs(length, seed))


class TestRegistry:
    def test_all_strategies_registered(self):
        assert available_strategies() == tuple(sorted(EXACT_STRATEGIES))

    def test_get_strategy_unknown_name(self):
        with pytest.raises(OptimizerError, match="unknown search strategy"):
            get_strategy("simulated_annealing")

    def test_retired_greedy_beam_is_unknown(self, fig7_stats, fig7_load):
        from repro.core.advisor import advise

        with pytest.raises(OptimizerError, match="unknown search strategy"):
            get_strategy("greedy_beam")
        with pytest.raises(OptimizerError, match="unknown search strategy"):
            advise(fig7_stats, fig7_load, strategy="greedy_beam")

    def test_strategies_satisfy_protocol(self):
        for name in available_strategies():
            strategy = get_strategy(name)
            assert isinstance(strategy, SearchStrategy)
            assert strategy.name == name

    def test_strategy_options_forwarded(self):
        assert get_strategy("exhaustive", keep_all=True).keep_all
        assert not get_strategy("exhaustive").keep_all

    def test_unknown_strategy_option_named_clearly(self):
        with pytest.raises(OptimizerError, match="exhaustive"):
            get_strategy("exhaustive", keep_al=True)  # typo'd option
        with pytest.raises(OptimizerError, match="branch_and_bound"):
            get_strategy("branch_and_bound", keep_all=True)  # takes no options

    def test_results_carry_strategy_name(self, fig6):
        for name in available_strategies():
            result = get_strategy(name).search(fig6)
            assert isinstance(result, SearchResult)
            assert result.strategy == name


class TestResultSerialization:
    """``SearchResult.to_dict``/``from_dict`` survive a JSON round trip."""

    @staticmethod
    def assert_round_trips(result):
        document = json.loads(json.dumps(result.to_dict()))
        rebuilt = SearchResult.from_dict(document)
        for field in dataclasses.fields(SearchResult):
            assert getattr(rebuilt, field.name) == getattr(
                result, field.name
            ), field.name

    @pytest.mark.parametrize("keep_trace", [False, True])
    @pytest.mark.parametrize("name", available_strategies())
    def test_every_strategy_round_trips(
        self, fig7_stats, fig7_load, name, keep_trace
    ):
        matrix = CostMatrix.compute(fig7_stats, fig7_load)
        result = get_strategy(name).search(matrix, keep_trace=keep_trace)
        assert bool(result.trace) == keep_trace
        self.assert_round_trips(result)

    def test_degraded_overrun_round_trips(self, fig7_stats, fig7_load):
        matrix = CostMatrix.compute(fig7_stats, fig7_load)
        result = degraded_search(matrix)
        assert result.extras["rung"] == "dynamic_program:overrun"
        self.assert_round_trips(result)


class TestFigure6AllStrategies:
    def test_every_exact_strategy_finds_the_paper_optimum(self, fig6):
        for name in EXACT_STRATEGIES:
            result = get_strategy(name).search(fig6)
            assert result.cost == 8.0
            assert result.configuration.partition() == ((1, 1), (2, 4))

    def test_dp_reports_row_lookups_not_configurations(self, fig6):
        result = get_strategy("dynamic_program").search(fig6)
        assert result.evaluated == 0
        assert result.extras["rows_inspected"] == 10
        assert "10 row lookups" in result.render()
        assert "configurations evaluated" not in result.render()


class TestStrategyParity:
    @given(
        length=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_exact_strategies_agree_on_synth_workloads(self, length, seed):
        matrix = synth_matrix(length, seed)
        costs = {
            name: get_strategy(name).search(matrix).cost
            for name in EXACT_STRATEGIES
        }
        reference = costs["exhaustive"]
        for name, cost in costs.items():
            assert cost == pytest.approx(reference), name

    @given(
        length=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_branch_and_bound_exact_with_negative_costs(self, length, seed):
        """The prune's lower bound must stay admissible for literal
        matrices with negative entries."""
        rng = random.Random(seed)
        values = {
            (start, end): {
                MX: rng.uniform(-10, 10),
                MIX: rng.uniform(-10, 10),
                NIX: rng.uniform(-10, 10),
            }
            for start in range(1, length + 1)
            for end in range(start, length + 1)
        }
        matrix = CostMatrix.from_values(length, values)
        exact = get_strategy("dynamic_program").search(matrix)
        # The prune carries a negative-tail lower bound, so branch and
        # bound stays exact.
        bnb = get_strategy("branch_and_bound").search(matrix)
        assert bnb.cost == pytest.approx(exact.cost)

    @given(
        length=st.integers(min_value=1, max_value=7),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_results_are_valid_partitions(self, length, seed):
        values = {}
        rng = random.Random(seed)
        for start in range(1, length + 1):
            for end in range(start, length + 1):
                values[(start, end)] = {
                    MX: rng.uniform(1, 20),
                    MIX: rng.uniform(1, 20),
                    NIX: rng.uniform(1, 20),
                }
        matrix = CostMatrix.from_values(length, values)
        for name in available_strategies():
            result = get_strategy(name).search(matrix)
            validate_partition(length, result.configuration.partition())


class TestPartitions:
    def test_partition_count(self):
        for length in range(1, 10):
            assert partition_count(length) == 2 ** (length - 1)
        with pytest.raises(OptimizerError):
            partition_count(0)

    def test_blocks_from_mask_roundtrip(self):
        length = 6
        seen = set()
        for mask in range(partition_count(length)):
            blocks = blocks_from_mask(length, mask)
            validate_partition(length, blocks)
            seen.add(blocks)
        assert len(seen) == partition_count(length)
        assert list(enumerate_partitions(length)) == [
            blocks_from_mask(length, mask)
            for mask in range(partition_count(length))
        ]

    def test_first_pieces_longest_first(self):
        pieces = list(enumerate_first_pieces(1, 4))
        assert pieces == [(1, 3), (1, 2), (1, 1)]

    def test_validate_partition_rejects_gaps(self):
        with pytest.raises(OptimizerError):
            validate_partition(4, ((1, 1), (3, 4)))
        with pytest.raises(OptimizerError):
            validate_partition(4, ((1, 2),))
        with pytest.raises(OptimizerError):
            validate_partition(4, ((1, 2), (3, 4), (5, 5)))


class TestAdvisorIntegration:
    def test_baseline_reuses_primary_result(self, fig7_stats, fig7_load):
        from repro.core.advisor import advise

        report = advise(fig7_stats, fig7_load, strategy="dynamic_program")
        assert report.dynprog is report.optimal
        report = advise(fig7_stats, fig7_load, strategy="exhaustive")
        assert report.exhaustive is report.optimal

    def test_advise_accepts_strategy_name(self, fig7_stats, fig7_load):
        default = advise_with(fig7_stats, fig7_load, "branch_and_bound")
        dp = advise_with(fig7_stats, fig7_load, "dynamic_program")
        exhaustive = advise_with(fig7_stats, fig7_load, "exhaustive")
        assert dp.optimal.cost == pytest.approx(default.optimal.cost)
        assert exhaustive.optimal.cost == pytest.approx(default.optimal.cost)
        assert exhaustive.optimal.strategy == "exhaustive"

    def test_long_path_baselines_skip_exhaustive(self):
        """Baselines on a length-20 path must not attempt the 2^19 sweep."""
        import time

        from repro.core.advisor import advise

        started = time.perf_counter()
        report = advise(*synth_inputs(20, seed=3), strategy="dynamic_program")
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0
        assert report.exhaustive is None
        assert report.dynprog is not None
        assert report.optimal.cost >= report.dynprog.cost - 1e-9
        assert report.single_index_costs  # cheap baselines still computed

    def test_advise_rejects_unknown_strategy(self, fig7_stats, fig7_load):
        from repro.core.advisor import advise

        with pytest.raises(OptimizerError):
            advise(fig7_stats, fig7_load, strategy="nope")


def advise_with(stats, load, strategy):
    from repro.core.advisor import advise

    return advise(stats, load, run_baselines=False, strategy=strategy)


class TestTopConfigurations:
    """The k-best sweep feeding multi-path candidate generation."""

    def test_first_entry_is_the_dp_optimum(self):
        for seed in range(5):
            matrix = synth_matrix(6, seed)
            ranked = top_configurations(matrix, count=4)
            optimum = get_strategy("dynamic_program").search(matrix)
            assert ranked[0][0] == pytest.approx(optimum.cost)

    def test_costs_ascend(self):
        matrix = synth_matrix(6, seed=11)
        ranked = top_configurations(matrix, count=20, per_row_organizations=2)
        costs = [cost for cost, _parts in ranked]
        assert costs == sorted(costs)

    def test_count_at_space_returns_whole_space(self):
        length = 5
        matrix = synth_matrix(length, seed=3)
        space = configuration_count(length, 2)
        ranked = top_configurations(
            matrix, count=space + 10, per_row_organizations=2
        )
        assert len(ranked) == space
        # Every returned entry is a valid partition with a distinct
        # (partition, organizations) signature.
        signatures = set()
        for cost, parts in ranked:
            validate_partition(length, tuple((p.start, p.end) for p in parts))
            signatures.add(parts)
            assert cost == pytest.approx(
                sum(
                    matrix.cost(p.start, p.end, p.organization) for p in parts
                )
            )
        assert len(signatures) == space

    def test_single_org_space_is_partition_count(self):
        length = 6
        matrix = synth_matrix(length, seed=7)
        ranked = top_configurations(
            matrix, count=10**6, per_row_organizations=1
        )
        assert len(ranked) == partition_count(length)

    def test_validation(self):
        matrix = synth_matrix(3, seed=0)
        with pytest.raises(OptimizerError, match="count"):
            top_configurations(matrix, count=0)
        with pytest.raises(OptimizerError, match="organizations per block"):
            top_configurations(matrix, count=4, per_row_organizations=0)

    def test_configuration_count_matches_enumeration(self):
        # r·(1+r)^(n-1) == sum over partitions of r^blocks.
        for length in range(1, 8):
            for r in (1, 2, 3):
                brute = sum(
                    r ** len(blocks)
                    for blocks in enumerate_partitions(length)
                )
                assert configuration_count(length, r) == brute
        with pytest.raises(OptimizerError):
            configuration_count(0, 1)
        with pytest.raises(OptimizerError):
            configuration_count(3, 0)


class TestIncrementalRefine:
    """The refinable DP: same answers as a fresh run, less work."""

    def test_refine_matches_fresh_dp_over_perturbation_chain(self):
        from test_matrix_recompute import perturb_load

        stats, load = synth_inputs(8, seed=3)
        matrix = CostMatrix.compute(stats, load)
        incremental = get_strategy("incremental_dynamic_program")
        incremental.search(matrix)
        for position, component in [(8, "delete"), (2, "query"), (1, "insert")]:
            load = perturb_load(
                load, stats.path.class_at(position), component, 2.0
            )
            matrix = matrix.recompute(load=load)
            refined = incremental.refine(
                matrix, matrix.recompute_report.dirty_rows
            )
            fresh = get_strategy("dynamic_program").search(matrix)
            assert refined.cost == fresh.cost
            assert refined.configuration == fresh.configuration
            assert refined.strategy == "incremental_dynamic_program"

    def test_refine_with_empty_dirty_set_is_stable(self):
        matrix = synth_matrix(5, seed=7)
        incremental = get_strategy("incremental_dynamic_program")
        base = incremental.search(matrix)
        refined = incremental.refine(matrix, frozenset())
        assert refined.cost == base.cost
        assert refined.configuration == base.configuration
        assert refined.extras["rows_inspected"] == 0
        assert refined.extras["reused_positions"] == matrix.length

    def test_refine_without_tables_degrades_to_search(self):
        matrix = synth_matrix(4, seed=11)
        incremental = get_strategy("incremental_dynamic_program")
        result = incremental.refine(matrix, {(1, 1)})
        fresh = get_strategy("dynamic_program").search(matrix)
        assert result.cost == fresh.cost
        assert result.extras["relaxed_positions"] == matrix.length

    def test_refine_on_new_length_degrades_to_search(self):
        incremental = get_strategy("incremental_dynamic_program")
        incremental.search(synth_matrix(4, seed=1))
        longer = synth_matrix(6, seed=1)
        result = incremental.refine(longer, {(1, 1)})
        fresh = get_strategy("dynamic_program").search(longer)
        assert result.cost == fresh.cost
        assert result.configuration == fresh.configuration

    def test_refine_inspects_fewer_rows_for_shallow_dirt(self):
        """A dirty set confined to start positions 1..2 must not re-relax
        the deep suffix of a long path."""
        matrix = synth_matrix(12, seed=2)
        incremental = get_strategy("incremental_dynamic_program")
        full = incremental.search(matrix)
        refined = incremental.refine(matrix, {(1, 3), (2, 5)})
        assert refined.cost == full.cost
        assert refined.extras["relaxed_positions"] <= 2
        assert refined.extras["rows_inspected"] < full.extras["rows_inspected"]
