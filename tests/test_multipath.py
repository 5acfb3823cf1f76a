"""Tests for the multi-path extension (Section 6).

Covers the beam-backed candidate generation (k-best sweep parity against
the exact enumeration oracle, property-tested), the joint cross-path
search, and the storage-budget variant (never exceeds the budget,
degrades monotonically as it tightens).
"""

import pytest
from conftest import oracle_matrix
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost_matrix import CostMatrix
from repro.core.multipath import (
    DEFAULT_BEAM_WIDTH,
    MultiPathResult,
    PathWorkload,
    optimize_multipath,
)
from repro.costmodel.params import ClassStats, PathStatistics
from repro.errors import OptimizerError
from repro.model.path import Path
from repro.obs import Recorder
from repro.organizations import EXTENDED_ORGANIZATIONS, IndexOrganization
from repro.paper import figure7_load, figure7_statistics, pe_path, pexa_path
from repro.search.partitions import configuration_count
from repro.synth import LevelSpec, linear_path_schema
from repro.workload.load import LoadDistribution, LoadTriplet


def pe_workload(schema=None):
    """Statistics and workload for the shorter path Pe (shares Per.owns.man)."""
    from repro.costmodel.params import ClassStats, PathStatistics
    from repro.paper import FIGURE7_ROWS

    path = pe_path()
    per_class = {
        name: ClassStats(objects=n, distinct=d, fanout=nin)
        for name, (n, d, nin, _) in FIGURE7_ROWS.items()
        if name in path.scope
    }
    stats = PathStatistics(path, per_class)
    load = LoadDistribution(
        path,
        {
            name: LoadTriplet(*FIGURE7_ROWS[name][3])
            for name in path.scope
        },
    )
    return PathWorkload(stats=stats, load=load)


def pexa_workload():
    return PathWorkload(stats=figure7_statistics(), load=figure7_load())


class TestSinglePath:
    def test_degenerates_to_single_path_optimum(self):
        workload = pexa_workload()
        result = optimize_multipath([workload])
        from repro.core.advisor import advise

        single = advise(workload.stats, workload.load)
        assert result.total_cost <= single.optimal.cost + 1e-6
        assert result.exact

    def test_empty_input_rejected(self):
        with pytest.raises(OptimizerError):
            optimize_multipath([])


class TestTwoOverlappingPaths:
    def test_joint_cost_at_most_independent(self):
        result = optimize_multipath([pexa_workload(), pe_workload()])
        assert result.total_cost <= result.independent_cost + 1e-6
        assert result.shared_savings >= 0.0

    def test_configurations_cover_both_paths(self):
        workloads = [pexa_workload(), pe_workload()]
        result = optimize_multipath(workloads)
        assert len(result.configurations) == 2
        assert result.configurations[0].length == 4
        assert result.configurations[1].length == 3

    def test_render(self):
        workloads = [pexa_workload(), pe_workload()]
        result = optimize_multipath(workloads)
        text = result.render(workloads)
        assert "joint cost" in text
        assert "Person.owns.man" in text

    def test_sharing_reported_when_identical_subpath_chosen(self):
        """Two identical paths must share everything."""
        workloads = [pexa_workload(), pexa_workload()]
        result = optimize_multipath(workloads)
        assert result.shared_savings > 0.0
        assert result.configurations[0].partition() == result.configurations[
            1
        ].partition()

    def test_per_row_organizations_widens_search(self):
        workloads = [pexa_workload(), pe_workload()]
        narrow = optimize_multipath(workloads, per_row_organizations=1)
        wide = optimize_multipath(workloads, per_row_organizations=2)
        assert wide.total_cost <= narrow.total_cost + 1e-6


class TestPrecomputedMatrices:
    def test_precomputed_matrices_match_internal_computation(self):
        from repro.core.cost_matrix import CostMatrix

        workloads = [pexa_workload(), pe_workload()]
        matrices = [
            CostMatrix.compute(w.stats, w.load) for w in workloads
        ]
        reused = optimize_multipath(workloads, matrices=matrices)
        computed = optimize_multipath(workloads)
        assert reused.total_cost == pytest.approx(computed.total_cost)
        assert reused.shared_savings == pytest.approx(computed.shared_savings)

    def test_recomputed_matrices_feed_what_if_loop(self):
        from repro.core.cost_matrix import CostMatrix
        from repro.workload.load import LoadDistribution

        workloads = [pexa_workload(), pe_workload()]
        matrices = [CostMatrix.compute(w.stats, w.load) for w in workloads]
        # Perturb the first path's workload and reuse its matrix
        # incrementally instead of recomputing both from scratch.
        first = workloads[0]
        new_load = LoadDistribution(
            first.load.path,
            {
                name: (
                    triplet.scaled(2.0) if name == "Person" else triplet
                )
                for name, triplet in first.load.items()
            },
        )
        new_workloads = [PathWorkload(first.stats, new_load), workloads[1]]
        new_matrices = [matrices[0].recompute(load=new_load), matrices[1]]
        incremental = optimize_multipath(new_workloads, matrices=new_matrices)
        fresh = optimize_multipath(new_workloads)
        assert incremental.total_cost == pytest.approx(fresh.total_cost)

    def test_matrix_count_mismatch_rejected(self):
        from repro.core.cost_matrix import CostMatrix

        workloads = [pexa_workload(), pe_workload()]
        matrix = CostMatrix.compute(
            workloads[0].stats, workloads[0].load
        )
        with pytest.raises(OptimizerError, match="matrices"):
            optimize_multipath(workloads, matrices=[matrix])

    def test_matrix_length_mismatch_rejected(self):
        from repro.core.cost_matrix import CostMatrix

        workloads = [pexa_workload(), pe_workload()]
        long_matrix = CostMatrix.compute(
            workloads[0].stats, workloads[0].load
        )
        with pytest.raises(OptimizerError, match="length"):
            optimize_multipath(workloads, matrices=[long_matrix, long_matrix])

    def test_workers_parameter_accepted(self):
        workloads = [pexa_workload()]
        serial = optimize_multipath(workloads, workers=0)
        parallel = optimize_multipath(workloads, workers=2)
        assert serial.total_cost == parallel.total_cost


def synthetic_workload(length: int, scale: float = 1.0) -> PathWorkload:
    """A deterministic linear-chain workload of the given length."""
    levels = [LevelSpec(f"L{i}") for i in range(length)]
    _schema, path = linear_path_schema(levels)
    per_class = {}
    objects = 20_000
    for position in range(1, length + 1):
        name = path.class_at(position)
        per_class[name] = ClassStats(
            objects=objects, distinct=max(5, objects // 4), fanout=1.5
        )
        objects = max(50, int(objects // 2.5))
    stats = PathStatistics(path, per_class)
    load = LoadDistribution.uniform(
        path, query=0.2 * scale, insert=0.05, delete=0.05
    )
    return PathWorkload(stats=stats, load=load)


@st.composite
def chain_workloads(draw):
    """Two overlapping random workloads: a chain and its suffix path."""
    length = draw(st.integers(min_value=3, max_value=5))
    levels = [LevelSpec(f"L{i}") for i in range(length)]
    schema, full_path = linear_path_schema(levels)
    per_class = {}
    triplets = {}
    frequency = st.floats(
        min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
    )
    for position in range(length):
        name = f"L{position}"
        objects = draw(st.integers(min_value=50, max_value=5_000))
        per_class[name] = ClassStats(
            objects=objects,
            distinct=draw(st.integers(min_value=1, max_value=objects)),
            fanout=draw(
                st.floats(
                    min_value=1.0,
                    max_value=3.0,
                    allow_nan=False,
                    allow_infinity=False,
                )
            ),
        )
        triplets[name] = LoadTriplet(
            query=draw(frequency), insert=draw(frequency), delete=draw(frequency)
        )
    full = PathWorkload(
        stats=PathStatistics(full_path, per_class),
        load=LoadDistribution(full_path, triplets),
    )
    suffix_expression = ".".join(
        ["L1", *[f"ref{i}" for i in range(2, length)], "label"]
    )
    suffix_path = Path.parse(schema, suffix_expression)
    suffix = PathWorkload(
        stats=PathStatistics(
            suffix_path,
            {name: s for name, s in per_class.items() if name in suffix_path.scope},
        ),
        load=LoadDistribution(
            suffix_path,
            {name: t for name, t in triplets.items() if name in suffix_path.scope},
        ),
    )
    return [full, suffix]


class TestBeamCandidateGeneration:
    def test_full_width_beam_matches_exact_oracle_on_paper_paths(self):
        workloads = [pexa_workload(), pe_workload()]
        width = max(
            configuration_count(w.stats.length, 2) for w in workloads
        )
        exact = optimize_multipath(workloads)
        beam = optimize_multipath(workloads, beam_width=width)
        assert exact.exact
        assert beam.total_cost == pytest.approx(exact.total_cost)
        assert beam.shared_savings == pytest.approx(exact.shared_savings)

    def test_beam_matches_oracle_on_all_lengths_up_to_8(self):
        for length in range(2, 9):
            workload = synthetic_workload(length)
            matrix = CostMatrix.compute(workload.stats, workload.load)
            width = configuration_count(length, 2)
            exact = optimize_multipath([workload], matrices=[matrix])
            beam = optimize_multipath(
                [workload], matrices=[matrix], beam_width=width
            )
            assert exact.exact, f"length {length} oracle was not exact"
            assert beam.total_cost == pytest.approx(exact.total_cost), (
                f"beam diverged from oracle at length {length}"
            )

    @settings(max_examples=15, deadline=None)
    @given(chain_workloads())
    def test_beam_joint_selection_matches_exact_oracle(self, workloads):
        matrices = [
            CostMatrix.compute(w.stats, w.load) for w in workloads
        ]
        width = max(
            configuration_count(w.stats.length, 2) for w in workloads
        )
        exact = optimize_multipath(workloads, matrices=matrices)
        beam = optimize_multipath(
            workloads, matrices=matrices, beam_width=width
        )
        assert exact.exact
        assert beam.total_cost == pytest.approx(exact.total_cost)

    def test_narrow_beam_bounded_by_independent_and_oracle(self):
        workloads = [pexa_workload(), pe_workload()]
        exact = optimize_multipath(workloads)
        narrow = optimize_multipath(workloads, beam_width=2)
        assert narrow.total_cost >= exact.total_cost - 1e-9
        assert narrow.total_cost <= narrow.independent_cost + 1e-9
        assert not narrow.exact

    def test_long_path_auto_switches_to_beam(self):
        workload = synthetic_workload(12)
        result = optimize_multipath([workload])
        assert not result.exact
        single = optimize_multipath([workload], beam_width=1)
        assert result.total_cost <= single.total_cost + 1e-9

    def test_fleet_too_large_to_walk_gets_the_beam_everywhere(self):
        """Each path's space (486, 162 and 54 candidates) could be
        enumerated, but their product is past the exhaustive walk's
        limit: every path gets the default beam, and the walk covers
        the beams' product instead of a descent over enumerated sets."""
        workloads = [synthetic_workload(length) for length in (6, 5, 4)]
        recorder = Recorder()
        result = optimize_multipath(workloads, recorder=recorder)
        (joint,) = [
            span["args"]
            for span in recorder.spans
            if span["name"] == "multipath.joint"
        ]
        assert joint["combinations"] == DEFAULT_BEAM_WIDTH**3
        assert joint["priced"] == joint["moves"] == 0
        assert not result.exact

    def test_beam_width_validation(self):
        with pytest.raises(OptimizerError, match="beam width"):
            optimize_multipath([pexa_workload()], beam_width=0)

    def test_per_row_organizations_validation(self):
        with pytest.raises(OptimizerError, match="organizations per block"):
            optimize_multipath([pexa_workload()], per_row_organizations=0)


class TestStorageBudget:
    @pytest.fixture(scope="class")
    def workloads(self):
        return [pexa_workload(), pe_workload()]

    @pytest.fixture(scope="class")
    def matrices(self, workloads):
        return [
            CostMatrix.compute(
                w.stats, w.load, organizations=EXTENDED_ORGANIZATIONS
            )
            for w in workloads
        ]

    def test_generous_budget_matches_unconstrained(self, workloads, matrices):
        unconstrained = optimize_multipath(workloads, matrices=matrices)
        budgeted = optimize_multipath(
            workloads, matrices=matrices, budget_pages=10**12
        )
        assert budgeted.total_cost == pytest.approx(unconstrained.total_cost)
        assert budgeted.unconstrained_cost is not None
        assert budgeted.budget_pages == 10**12

    def test_budget_never_exceeded(self, workloads, matrices):
        generous = optimize_multipath(
            workloads, matrices=matrices, budget_pages=10**12
        )
        for fraction in (0.0, 0.1, 0.25, 0.5, 0.75, 1.0):
            budget = generous.storage_pages * fraction
            result = optimize_multipath(
                workloads, matrices=matrices, budget_pages=budget
            )
            assert result.storage_pages <= budget

    def test_monotone_in_budget_exact_regime(self, workloads, matrices):
        generous = optimize_multipath(
            workloads, matrices=matrices, budget_pages=10**12
        )
        budgets = [
            0.0,
            generous.storage_pages * 0.25,
            generous.storage_pages * 0.5,
            generous.storage_pages,
            10**12,
        ]
        costs = [
            optimize_multipath(
                workloads, matrices=matrices, budget_pages=budget
            ).total_cost
            for budget in budgets
        ]
        assert costs == sorted(costs, reverse=True)

    def test_monotone_in_budget_beam_candidates_exact_product(
        self, workloads, matrices
    ):
        # Two paths with width-8 beam candidates: the cross product stays
        # under _EXACT_LIMIT, so this covers beam *generation* feeding
        # the exact filtered product (the sweep branch is covered by
        # test_sweep_regime_budget_properties).
        generous = optimize_multipath(
            workloads, matrices=matrices, budget_pages=10**12, beam_width=8
        )
        budgets = [
            0.0,
            generous.storage_pages * 0.25,
            generous.storage_pages * 0.5,
            generous.storage_pages,
            10**12,
        ]
        results = [
            optimize_multipath(
                workloads, matrices=matrices, budget_pages=budget, beam_width=8
            )
            for budget in budgets
        ]
        costs = [result.total_cost for result in results]
        assert costs == sorted(costs, reverse=True)
        for budget, result in zip(budgets, results):
            assert result.storage_pages <= budget

    def test_sweep_regime_budget_properties(self):
        # Five paths with >= 16 candidates each put the cross product
        # (>= 16^5 ~ 1M) past _EXACT_LIMIT, forcing the greedy
        # _budget_sweep branch rather than the exact filtered product.
        workloads = [
            synthetic_workload(6, scale=1.0 + 0.2 * index) for index in range(5)
        ]
        matrices = [
            CostMatrix.compute(
                w.stats, w.load, organizations=EXTENDED_ORGANIZATIONS
            )
            for w in workloads
        ]
        generous = optimize_multipath(
            workloads, matrices=matrices, beam_width=16, budget_pages=10**12
        )
        assert not generous.exact
        budgets = [
            0.0,
            generous.storage_pages * 0.25,
            generous.storage_pages * 0.5,
            generous.storage_pages,
            10**12,
        ]
        results = [
            optimize_multipath(
                workloads, matrices=matrices, beam_width=16, budget_pages=budget
            )
            for budget in budgets
        ]
        costs = [result.total_cost for result in results]
        assert costs == sorted(costs, reverse=True)
        for budget, result in zip(budgets, results):
            assert result.storage_pages <= budget
        # Zero budget is feasible through the storage-ranked candidates.
        assert results[0].storage_pages == 0.0
        # A generous budget recovers the seeded unconstrained optimum.
        unconstrained = optimize_multipath(
            workloads, matrices=matrices, beam_width=16
        )
        assert results[-1].total_cost <= unconstrained.total_cost + 1e-9

    def test_generous_beam_budget_recovers_unconstrained(
        self, workloads, matrices
    ):
        unconstrained = optimize_multipath(
            workloads, matrices=matrices, beam_width=8
        )
        budgeted = optimize_multipath(
            workloads, matrices=matrices, beam_width=8, budget_pages=10**12
        )
        assert budgeted.total_cost <= unconstrained.total_cost + 1e-9

    def test_zero_budget_uses_none_everywhere(self, workloads, matrices):
        result = optimize_multipath(
            workloads, matrices=matrices, budget_pages=0.0
        )
        assert result.storage_pages == 0.0
        for configuration in result.configurations:
            used = {a.organization for a in configuration.assignments}
            assert used == {IndexOrganization.NONE}

    def test_impossible_budget_raises(self, workloads):
        # MX/MIX/NIX only: no zero-storage fallback exists.
        with pytest.raises(OptimizerError, match="pages"):
            optimize_multipath(workloads, budget_pages=0.0)

    def test_negative_budget_rejected(self, workloads):
        with pytest.raises(OptimizerError, match="negative"):
            optimize_multipath(workloads, budget_pages=-1.0)

    def test_nan_budget_rejected(self, workloads):
        # NaN would silently disable the constraint: every
        # `storage <= nan` comparison is false.
        with pytest.raises(OptimizerError, match="storage budget"):
            optimize_multipath(workloads, budget_pages=float("nan"))

    def test_single_path_matches_optimize_with_budget(self):
        from repro.core.budget import optimize_with_budget

        workload = pexa_workload()
        matrix = CostMatrix.compute(
            workload.stats, workload.load, organizations=EXTENDED_ORGANIZATIONS
        )
        for budget in (10**9, 4_000.0, 2_000.0, 0.0):
            single = optimize_with_budget(matrix, budget_pages=budget)
            joint = optimize_multipath(
                [workload], matrices=[matrix], budget_pages=budget
            )
            # Cost parity; equal-cost ties may resolve to configurations
            # with slightly different footprints, so only feasibility is
            # asserted for storage.
            assert joint.total_cost == pytest.approx(single.cost)
            assert joint.storage_pages <= budget

    def test_literal_matrix_rejected(self, fig6):
        workload = synthetic_workload(fig6.length)
        with pytest.raises(OptimizerError, match="computed cost matrix"):
            optimize_multipath(
                [workload], matrices=[fig6], budget_pages=100.0
            )

    def test_budget_render_mentions_budget(self, workloads, matrices):
        result = optimize_multipath(
            workloads, matrices=matrices, budget_pages=10**9
        )
        text = result.render(workloads)
        assert "budget pages" in text


class TestBatchedPricing:
    """The batched candidate pricer must be bit-identical to a scalar
    per-candidate loop over the scalar oracle's breakdowns — same query
    folds, same per-key maintenance/storage splits, same candidate
    order."""

    @staticmethod
    def _snapshot(candidates):
        return [
            (c.configuration, c.query_cost, c.maintenance, c.storage)
            for c in candidates
        ]

    @staticmethod
    def _scalar_snapshot(stats, oracle, candidates):
        """Re-price each candidate's blocks one ``+=`` at a time."""
        from repro.core import multipath as mp

        snapshot = []
        for candidate in candidates:
            query_cost = 0.0
            maintenance = {}
            storage = {}
            for part in candidate.configuration.assignments:
                breakdown = oracle.breakdown(
                    part.start, part.end, part.organization
                )
                query_cost += breakdown.query
                key = mp._subpath_key(
                    stats, part.start, part.end, part.organization
                )
                maintenance[key] = (
                    maintenance.get(key, 0.0)
                    + breakdown.insert
                    + breakdown.delete
                    + breakdown.cmd
                )
                storage[key] = max(
                    storage.get(key, 0.0), breakdown.storage_pages
                )
            snapshot.append(
                (candidate.configuration, query_cost, maintenance, storage)
            )
        return snapshot

    @pytest.mark.parametrize("generator", ["exact", "beam", "budget"])
    def test_batched_matches_scalar_pricing(self, generator):
        from repro.core import multipath as mp

        workload = synthetic_workload(7)
        matrix = CostMatrix.compute(
            workload.stats,
            workload.load,
            organizations=EXTENDED_ORGANIZATIONS,
        )
        descriptor = {
            "exact": (2, None, False),
            "beam": (2, 16, False),
            "budget": (len(EXTENDED_ORGANIZATIONS), 16, True),
        }[generator]
        candidates = mp._candidates(workload, matrix, descriptor)
        oracle = oracle_matrix(
            workload.stats, workload.load, organizations=EXTENDED_ORGANIZATIONS
        )
        assert self._snapshot(candidates) == self._scalar_snapshot(
            workload.stats, oracle, candidates
        )

    def test_joint_selection_unchanged_by_batching(self):
        """Joint selection over kernel-built matrices equals the same
        selection over the scalar oracle's matrices."""
        workloads = [synthetic_workload(6), synthetic_workload(6, scale=2.0)]
        batched = optimize_multipath(workloads)
        scalar = optimize_multipath(
            workloads,
            matrices=[oracle_matrix(w.stats, w.load) for w in workloads],
        )
        assert batched.configurations == scalar.configurations
        assert batched.total_cost == scalar.total_cost
        assert batched.shared_savings == scalar.shared_savings
        assert batched.storage_pages == scalar.storage_pages
