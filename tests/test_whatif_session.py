"""Tests for the ``repro.whatif`` subsystem (PR 4).

The load-bearing property: an :class:`~repro.whatif.AdvisorSession`
after an arbitrary sequence of supported perturbations answers
bit-identically to a fresh ``advise`` over the final inputs — for every
registered exact strategy, so the incremental matrix recompute (with its
O(1) ``CMD`` patches), the refinable dynamic program, and the session
bookkeeping can never drift from the one-shot pipeline. Also covers
:class:`~repro.core.cost_matrix.RecomputeReport`, the declarative
:class:`~repro.whatif.Perturbation` format, the multi-path session with
its candidate caching and its equality with a fresh
``optimize_multipath``, and the seeded randomized restarts of the joint
coordinate descent.
"""

import pytest
from conftest import make_suffix_fleet
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.multipath as multipath_module
from repro.core.cost_matrix import CostMatrix
from repro.core.multipath import PathWorkload, optimize_multipath
from repro.costmodel.params import ClassStats, PathStatistics
from repro.errors import CostModelError, OptimizerError, WorkloadError
from repro.obs import Recorder
from repro.organizations import EXTENDED_ORGANIZATIONS
from repro.resilience import Deadline
from repro.resilience.faults import FakeClock
from repro.search import available_strategies, get_strategy
from repro.synth import LevelSpec, linear_path_schema
from repro.whatif import (
    AdvisorSession,
    MultiPathSession,
    Perturbation,
    parse_steps,
)
from repro.workload.load import LoadDistribution


def make_world(length=5, subclasses=(0, 1, 0, 2, 0), prefix="L", objects=40_000):
    levels = [
        LevelSpec(f"{prefix}{i}", subclasses=subclasses[i % len(subclasses)])
        for i in range(length)
    ]
    _schema, path = linear_path_schema(levels)
    per_class = {}
    remaining = objects
    for position in range(1, length + 1):
        for member in path.hierarchy_at(position):
            per_class[member] = ClassStats(
                objects=remaining, distinct=max(10, remaining // 6), fanout=1.0
            )
        remaining = max(50, remaining // 5)
    stats = PathStatistics(path, per_class)
    load = LoadDistribution.uniform(path, query=0.3, insert=0.1, delete=0.05)
    return stats, load


class TestPerturbation:
    def test_parse_scale_and_set(self):
        scaled = Perturbation.parse("Division:delete*2")
        assert scaled == Perturbation("Division", "delete", "scale", 2.0)
        assert scaled.kind == "load"
        pinned = Perturbation.parse("Division:objects=5000")
        assert pinned == Perturbation("Division", "objects", "set", 5000.0)
        assert pinned.kind == "stats"

    def test_parse_rejects_garbage(self):
        for text in ("Division", "Division:delete", "Division:delete*x", ":q*2"):
            with pytest.raises(OptimizerError):
                Perturbation.parse(text)

    def test_unknown_component_rejected(self):
        with pytest.raises(OptimizerError, match="component"):
            Perturbation("A", "updates", "scale", 2.0)

    def test_negative_value_rejected(self):
        with pytest.raises(OptimizerError, match="non-negative"):
            Perturbation("A", "query", "set", -1.0)

    def test_round_trips_through_dict(self):
        perturbation = Perturbation("A", "insert", "scale", 1.5)
        assert Perturbation.from_dict(perturbation.to_dict()) == perturbation

    def test_parse_steps_document_forms(self):
        steps = [{"class": "A", "component": "query", "scale": 2.0}]
        assert parse_steps(steps) == parse_steps({"steps": steps})
        with pytest.raises(OptimizerError):
            parse_steps({"wrong": steps})
        with pytest.raises(OptimizerError):
            parse_steps([{"class": "A", "component": "query"}])
        with pytest.raises(OptimizerError):
            parse_steps(
                [{"class": "A", "component": "query", "scale": 1, "set": 1}]
            )

    def test_apply_load_replaces_one_triplet_only(self):
        stats, load = make_world()
        perturbation = Perturbation("L2", "delete", "scale", 3.0)
        new_stats, new_load = perturbation.apply(stats, load)
        assert new_stats is stats
        assert new_load is not load
        assert new_load.triplet("L2").delete == load.triplet("L2").delete * 3.0
        assert new_load.triplet("L0") == load.triplet("L0")

    def test_apply_stats_replaces_one_class_only(self):
        stats, load = make_world()
        perturbation = Perturbation("L1", "objects", "scale", 2.0)
        new_stats, new_load = perturbation.apply(stats, load)
        assert new_load is load
        assert new_stats.stats_of("L1").objects == stats.stats_of("L1").objects * 2
        assert new_stats.stats_of("L0") == stats.stats_of("L0")

    def test_apply_unknown_class_rejected(self):
        stats, load = make_world()
        with pytest.raises(WorkloadError):
            Perturbation("Nope", "query", "scale", 2.0).apply(stats, load)


class TestPerturbationEdgeCases:
    """Round-trip pinning beyond the happy path: zero frequencies,
    unknown classes, and the ``=v`` vs ``*f`` flag forms."""

    @pytest.mark.parametrize("value", [0.0, 0.25, 1e-3, 7.0, 1e6, 0.5])
    def test_describe_parse_round_trip_scale_and_set(self, value):
        for mode in ("scale", "set"):
            perturbation = Perturbation("Division", "query", mode, value)
            assert Perturbation.parse(perturbation.describe()) == perturbation

    @pytest.mark.parametrize("value", [0.0, 1e-3, 1e6])
    def test_dict_round_trip_edge_values(self, value):
        for mode in ("scale", "set"):
            perturbation = Perturbation("A", "delete", mode, value)
            assert Perturbation.from_dict(perturbation.to_dict()) == perturbation

    def test_zero_set_produces_zero_frequency(self):
        stats, load = make_world()
        _, new_load = Perturbation("L2", "query", "set", 0.0).apply(stats, load)
        assert new_load.triplet("L2").query == 0.0

    def test_zero_scale_on_zero_frequency_is_a_noop_apply(self):
        stats, load = make_world()
        zero_load = LoadDistribution(stats.path, {})  # all-zero triplets
        session = AdvisorSession(stats, zero_load)
        session.advise()
        report = session.perturb(Perturbation("L2", "query", "scale", 5.0))
        # 5 x 0 is still 0: nothing is dirty, the version must not move.
        assert report.dirty_count == 0
        assert session.version == 0

    def test_scale_zero_and_set_zero_agree(self):
        stats, load = make_world()
        _, scaled = Perturbation("L1", "insert", "scale", 0.0).apply(stats, load)
        _, pinned = Perturbation("L1", "insert", "set", 0.0).apply(stats, load)
        assert scaled.triplet("L1") == pinned.triplet("L1")

    def test_unknown_class_parses_but_fails_on_apply(self):
        stats, load = make_world()
        load_perturbation = Perturbation.parse("Ghost:query*2")
        with pytest.raises(WorkloadError, match="Ghost"):
            load_perturbation.apply(stats, load)
        stats_perturbation = Perturbation.parse("Ghost:objects=10")
        from repro.errors import CostModelError

        with pytest.raises(CostModelError, match="Ghost"):
            stats_perturbation.apply(stats, load)

    def test_mixed_operator_forms_rejected(self):
        for text in ("A:query*2=3", "A:query=", "A:query*", "A:*2", "A:=3"):
            with pytest.raises(OptimizerError):
                Perturbation.parse(text)

    def test_set_and_scale_flag_forms_differ(self):
        scaled = Perturbation.parse("A:query*2")
        pinned = Perturbation.parse("A:query=2")
        assert scaled.mode == "scale" and pinned.mode == "set"
        assert scaled != pinned
        assert scaled.describe() == "A:query*2"
        assert pinned.describe() == "A:query=2"

    def test_zero_frequency_session_round_trip_matches_fresh(self):
        stats, load = make_world()
        session = AdvisorSession(stats, load)
        session.perturb(Perturbation("L2", "query", "set", 0.0))
        session.perturb(Perturbation("L2", "insert", "set", 0.0))
        session.perturb(Perturbation("L2", "delete", "set", 0.0))
        fresh = get_strategy("dynamic_program").search(
            CostMatrix.compute(session.stats, session.load)
        )
        result = session.advise()
        assert result.cost == fresh.cost
        assert result.configuration == fresh.configuration


class TestRecomputeReport:
    def test_compute_carries_no_report(self):
        stats, load = make_world()
        assert CostMatrix.compute(stats, load).recompute_report is None

    def test_incremental_report_counts_rows(self):
        stats, load = make_world()
        matrix = CostMatrix.compute(stats, load)
        _, new_load = Perturbation("L2", "insert", "scale", 2.0).apply(
            stats, load
        )
        updated = matrix.recompute(load=new_load)
        report = updated.recompute_report
        assert report.mode == "incremental"
        assert report.incremental
        assert report.patched_rows == ()
        # L2 roots position 3: rows covering it are re-priced.
        assert set(report.recomputed_rows) == {
            (s, e) for s in range(1, 4) for e in range(3, stats.length + 1)
        }
        assert report.dirty_count == len(report.recomputed_rows)
        assert report.total_rows == matrix.row_count()
        assert "re-priced" in report.describe()

    def test_delete_change_reports_cmd_patches(self):
        stats, load = make_world()
        matrix = CostMatrix.compute(stats, load)
        _, new_load = Perturbation("L2", "delete", "scale", 2.0).apply(
            stats, load
        )
        report = matrix.recompute(load=new_load).recompute_report
        # Rows ending at position 2 only feel the CMD term of position-3
        # deletions: they are patched, never re-priced.
        assert set(report.patched_rows) == {(1, 2), (2, 2)}
        assert set(report.recomputed_rows) == {
            (s, e) for s in range(1, 4) for e in range(3, stats.length + 1)
        }
        assert set(report.dirty_rows) == set(report.recomputed_rows) | set(
            report.patched_rows
        )

    def test_cmd_patch_is_bit_identical_to_fresh_compute(self):
        stats, load = make_world()
        matrix = CostMatrix.compute(stats, load)
        _, new_load = Perturbation("L4", "delete", "scale", 7.0).apply(
            stats, load
        )
        patched = matrix.recompute(load=new_load)
        fresh = CostMatrix.compute(stats, new_load)
        for start, end in fresh.rows():
            for organization in fresh.organizations:
                assert patched.cost(start, end, organization) == fresh.cost(
                    start, end, organization
                )
                assert (
                    patched.breakdown(start, end, organization).cmd
                    == fresh.breakdown(start, end, organization).cmd
                )

    def test_config_change_reports_full_mode_with_reason(self):
        import dataclasses

        stats, load = make_world()
        matrix = CostMatrix.compute(stats, load)
        new_stats = PathStatistics(
            stats.path,
            {
                member: stats.stats_of(member)
                for position in range(1, stats.length + 1)
                for member in stats.members(position)
            },
            dataclasses.replace(stats.config, pr_mx=2.0),
        )
        report = matrix.recompute(stats=new_stats).recompute_report
        assert report.mode == "full"
        assert not report.incremental
        assert "config" in report.reason
        assert len(report.recomputed_rows) == report.total_rows


class TestAdvisorSession:
    def test_baseline_matches_plain_advise(self):
        stats, load = make_world()
        session = AdvisorSession(stats, load)
        fresh = get_strategy("dynamic_program").search(
            CostMatrix.compute(stats, load)
        )
        result = session.advise()
        assert result.cost == fresh.cost
        assert result.configuration == fresh.configuration

    def test_advise_without_changes_returns_cached_result(self):
        stats, load = make_world()
        session = AdvisorSession(stats, load)
        first = session.advise()
        assert session.advise() is first

    def test_trace_request_searches_a_cached_answer_again(self):
        """A cached answer kept no trace, so ``keep_trace=True`` searches
        again: the same answer, now with a trace, and no cache hit."""
        stats, load = make_world()
        recorder = Recorder()
        session = AdvisorSession(stats, load, recorder=recorder)
        first = session.advise()
        assert not first.trace
        traced = session.advise(keep_trace=True)
        assert traced.trace
        assert traced.cost == first.cost
        assert traced.configuration == first.configuration
        counters = recorder.profile()["metrics"]["counters"]
        assert "whatif.advise_cache_hits" not in counters

    def test_trace_search_abandoned_under_an_expired_deadline(self):
        """With no time left for the trace search, the cached answer
        comes back and the abandoned search is recorded."""
        stats, load = make_world()
        session = AdvisorSession(stats, load)
        first = session.advise()
        clock = FakeClock()
        deadline = Deadline(0.001, clock=clock)
        clock.advance(1.0)
        assert session.advise(keep_trace=True, deadline=deadline) is first
        assert len(session.degradation) == 1
        assert session.degradation.describe().startswith(
            "[session] trace_search_abandoned"
        )

    def test_apply_requires_something(self):
        stats, load = make_world()
        session = AdvisorSession(stats, load)
        with pytest.raises(OptimizerError, match="apply requires"):
            session.apply()

    def test_version_moves_only_when_rows_touched(self):
        stats, load = make_world()
        session = AdvisorSession(stats, load)
        assert session.version == 0
        session.apply(load=load.scaled(1.0))  # equal values: nothing dirty
        assert session.version == 0
        session.perturb(Perturbation("L2", "query", "scale", 2.0))
        assert session.version == 1

    def test_session_survives_full_fallback(self):
        import dataclasses

        stats, load = make_world()
        session = AdvisorSession(stats, load)
        session.advise()
        new_stats = PathStatistics(
            stats.path,
            {
                member: stats.stats_of(member)
                for position in range(1, stats.length + 1)
                for member in stats.members(position)
            },
            dataclasses.replace(stats.config, pr_mx=2.0),
        )
        report = session.apply(stats=new_stats)
        assert report.mode == "full"
        fresh = get_strategy("dynamic_program").search(
            CostMatrix.compute(new_stats, load)
        )
        result = session.advise()
        assert result.cost == fresh.cost
        assert result.configuration == fresh.configuration

    def test_run_produces_step_reports(self):
        stats, load = make_world()
        session = AdvisorSession(stats, load)
        steps = session.run(
            [
                Perturbation("L2", "delete", "scale", 2.0),
                Perturbation("L0", "query", "scale", 4.0),
            ]
        )
        assert [step.index for step in steps] == [0, 1, 2]
        assert steps[0].report is None
        assert steps[1].report.mode == "incremental"
        assert steps[1].description == "L2:delete*2"
        # Every step's answer equals a fresh advise over its inputs.
        fresh = get_strategy("dynamic_program").search(
            CostMatrix.compute(session.stats, session.load)
        )
        assert steps[-1].cost == fresh.cost

    def test_incremental_search_reuses_positions(self):
        stats, load = make_world(length=6, subclasses=(0,) * 6)
        session = AdvisorSession(stats, load)
        session.advise()
        # An insert change at the first position dirties only rows
        # starting there, so the refinement relaxes a strict subset of
        # the DP positions and reuses the rest of the tables.
        session.perturb(
            Perturbation(stats.path.class_at(1), "insert", "scale", 2.0)
        )
        result = session.advise()
        assert result.extras["reused_positions"] > 0
        assert (
            result.extras["relaxed_positions"]
            + result.extras["reused_positions"]
            == stats.length
        )


def perturbation_strategy(scope):
    component = st.sampled_from(
        ["query", "insert", "delete", "objects", "distinct"]
    )
    return st.builds(
        Perturbation,
        class_name=st.sampled_from(scope),
        component=component,
        mode=st.sampled_from(["scale", "set"]),
        value=st.floats(min_value=0.1, max_value=8.0),
    )


@st.composite
def session_worlds(draw):
    length = draw(st.integers(min_value=2, max_value=4))
    subclasses = tuple(
        draw(st.integers(min_value=0, max_value=2)) for _ in range(length)
    )
    stats, load = make_world(length=length, subclasses=subclasses)
    scope = [
        member
        for position in range(1, length + 1)
        for member in stats.members(position)
    ]
    count = draw(st.integers(min_value=1, max_value=5))
    perturbations = [draw(perturbation_strategy(scope)) for _ in range(count)]
    return stats, load, perturbations


class TestSessionEqualsFreshAdvise:
    @given(world=session_worlds())
    @settings(max_examples=25, deadline=None)
    def test_any_perturbation_sequence_matches_fresh_search(self, world):
        """The tentpole invariant: session == from-scratch, bit for bit,
        for every registered strategy."""
        stats, load, perturbations = world
        names = available_strategies()
        sessions = {
            name: AdvisorSession(stats, load, strategy=name) for name in names
        }
        current_stats, current_load = stats, load
        for perturbation in perturbations:
            try:
                current_stats, current_load = perturbation.apply(
                    current_stats, current_load
                )
            except Exception:
                # A perturbation the validating constructors reject (e.g.
                # distinct > objects) must be rejected identically by the
                # sessions; skip it on both sides.
                for session in sessions.values():
                    with pytest.raises(Exception):
                        session.perturb(perturbation)
                continue
            for session in sessions.values():
                session.perturb(perturbation)
        fresh_matrix = CostMatrix.compute(current_stats, current_load)
        for name, session in sessions.items():
            fresh = get_strategy(name).search(fresh_matrix)
            result = session.advise()
            assert result.cost == fresh.cost, name
            assert result.configuration == fresh.configuration, name
            # Answering twice without new perturbations is stable.
            assert session.advise() is result


class TestMultiPathSessions:
    def make_pair(self):
        first = make_world(length=4, subclasses=(0, 1, 0, 0), prefix="A")
        second = make_world(
            length=5, subclasses=(0, 0, 2, 0, 0), prefix="B", objects=30_000
        )
        return first, second

    def test_sessions_match_fresh_optimize(self):
        (s1, l1), (s2, l2) = self.make_pair()
        sessions = [AdvisorSession(s1, l1), AdvisorSession(s2, l2)]
        via_sessions = optimize_multipath(sessions=sessions)
        fresh = optimize_multipath([PathWorkload(s1, l1), PathWorkload(s2, l2)])
        assert via_sessions.total_cost == fresh.total_cost
        assert via_sessions.configurations == fresh.configurations

    def test_sessions_exclusive_with_workloads(self):
        (s1, l1), _ = self.make_pair()
        session = AdvisorSession(s1, l1)
        with pytest.raises(OptimizerError, match="not both"):
            optimize_multipath(
                [PathWorkload(s1, l1)], sessions=[session]
            )

    def test_untouched_path_candidates_reused_by_identity(self):
        (s1, l1), (s2, l2) = self.make_pair()
        sessions = [AdvisorSession(s1, l1), AdvisorSession(s2, l2)]
        optimize_multipath(sessions=sessions)
        untouched = {
            key: value[1] for key, value in sessions[1].candidate_cache.items()
        }
        sessions[0].perturb(Perturbation("A2", "delete", "scale", 3.0))
        result = optimize_multipath(sessions=sessions)
        for key, candidates in sessions[1].candidate_cache.items():
            assert candidates[1] is untouched[key]
        fresh = optimize_multipath(
            [
                PathWorkload(sessions[0].stats, sessions[0].load),
                PathWorkload(s2, l2),
            ]
        )
        assert result.total_cost == fresh.total_cost
        assert result.configurations == fresh.configurations

    def test_multipath_session_caches_identical_questions(self):
        (s1, l1), (s2, l2) = self.make_pair()
        joint = MultiPathSession(
            [AdvisorSession(s1, l1), AdvisorSession(s2, l2)]
        )
        first = joint.optimize()
        assert joint.optimize() is first
        joint.perturb(0, Perturbation("A0", "query", "scale", 2.0))
        second = joint.optimize()
        assert second is not first

    def test_multipath_session_from_workloads(self):
        (s1, l1), (s2, l2) = self.make_pair()
        joint = MultiPathSession.from_workloads(
            [PathWorkload(s1, l1), PathWorkload(s2, l2)]
        )
        assert len(joint.sessions) == 2
        with pytest.raises(OptimizerError):
            MultiPathSession([])


#: Nine perturbations of the multipath-budget fleet shape (8 suffix paths
#: of an 18-class chain, unbudgeted, so the joint stage descends). After
#: each, the previous step's answer is still a local optimum of the new
#: candidate sets; after the last, the descent from the independent
#: optima finds a cheaper selection (74.4862) than that local optimum
#: (78.0552).
PINNED_STEPS = [
    (7, "L15", "insert", 10),
    (3, "L5", "delete", 10),
    (2, "L5", "insert", 5),
    (2, "L4", "delete", 0.1),
    (6, "L13", "delete", 0.2),
    (0, "L16", "query", 0.1),
    (0, "L6", "query", 0.1),
    (7, "L12", "insert", 0.2),
    (3, "L13", "insert", 10),
]


def fresh_optimize(joint, **options):
    """``optimize_multipath`` from scratch on a session's current inputs,
    over its matrices' organizations."""
    return optimize_multipath(
        [PathWorkload(session.stats, session.load) for session in joint.sessions],
        organizations=joint.sessions[0].matrix.organizations,
        **options,
    )


@st.composite
def multipath_sequences(draw):
    """A small suffix fleet, a joint-stage regime and perturbation steps."""
    paths = draw(st.integers(min_value=2, max_value=3))
    workloads = make_suffix_fleet(
        draw(st.integers(min_value=0, max_value=2**16)),
        chain_length=draw(st.integers(min_value=paths, max_value=5)),
        paths=paths,
    )
    steps = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        index = draw(st.integers(min_value=0, max_value=paths - 1))
        scope = list(workloads[index].stats.path.scope)
        steps.append((index, draw(perturbation_strategy(scope))))
    regime = draw(st.sampled_from(["exhaustive", "descent", "budgeted"]))
    return workloads, regime, steps


class TestMultiPathSessionEqualsFresh:
    """A multi-path session answers what a fresh ``optimize_multipath``
    answers on its current inputs, whatever it was asked before."""

    def test_pinned_descent_sequence_matches_fresh(self):
        joint = MultiPathSession.from_workloads(
            make_suffix_fleet(11, chain_length=18, paths=8)
        )
        joint.optimize()
        for index, class_name, component, scale in PINNED_STEPS:
            joint.perturb(index, Perturbation(class_name, component, "scale", scale))
            result = joint.optimize()
            assert result == fresh_optimize(joint)
        assert result.total_cost == pytest.approx(74.4862, abs=1e-4)

    @given(sequence=multipath_sequences())
    @settings(max_examples=30, deadline=None)
    def test_any_perturbation_sequence_matches_fresh(self, sequence):
        workloads, regime, steps = sequence
        options = {}
        with pytest.MonkeyPatch.context() as patch:
            if regime != "exhaustive":
                patch.setattr(multipath_module, "_EXACT_LIMIT", 1)
                options["beam_width"] = 8
            joint = MultiPathSession.from_workloads(
                workloads, organizations=EXTENDED_ORGANIZATIONS
            )
            if regime == "budgeted":
                # NONE keeps every budget feasible.
                options["budget_pages"] = (
                    0.5 * fresh_optimize(joint, **options).storage_pages
                )
            assert joint.optimize(**options) == fresh_optimize(joint, **options)
            for index, perturbation in steps:
                try:
                    joint.perturb(index, perturbation)
                except (CostModelError, WorkloadError):
                    pass  # Rejected inputs: the session keeps its own.
                assert joint.optimize(**options) == fresh_optimize(
                    joint, **options
                )


class TestRandomizedRestarts:
    def test_restarts_validation(self):
        from repro.core.multipath import validate_selection_options

        validate_selection_options(restarts=0)
        with pytest.raises(OptimizerError, match="restarts"):
            validate_selection_options(restarts=-1)

    def test_restarts_deterministic_and_never_worse(self, monkeypatch):
        # Force the descent regime so restarts actually run.
        monkeypatch.setattr(multipath_module, "_EXACT_LIMIT", 1)
        (s1, l1) = make_world(length=4, subclasses=(0, 1, 0, 0), prefix="A")
        (s2, l2) = make_world(
            length=5, subclasses=(0, 0, 2, 0, 0), prefix="B", objects=30_000
        )
        workloads = [PathWorkload(s1, l1), PathWorkload(s2, l2)]
        baseline = optimize_multipath(workloads, restarts=0)
        hedged_a = optimize_multipath(workloads, restarts=4, seed=11)
        hedged_b = optimize_multipath(workloads, restarts=4, seed=11)
        assert hedged_a.total_cost == hedged_b.total_cost
        assert hedged_a.configurations == hedged_b.configurations
        assert hedged_a.total_cost <= baseline.total_cost + 1e-9
        assert not baseline.exact
