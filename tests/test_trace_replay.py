"""Tests for continuous replay and batched application (PR 5).

The load-bearing properties:

* at **every** re-advise point of a :class:`~repro.trace.ContinuousAdvisor`
  replay the emitted recommendation is bit-identical to a from-scratch
  ``advise()`` over the session's current inputs (Hypothesis-pinned over
  random regimes, windows and thresholds);
* :meth:`~repro.whatif.AdvisorSession.apply_many` leaves the session in
  exactly the state a one-by-one ``apply`` sequence produces — one
  recompute, same matrix, same answers;
* :func:`~repro.whatif.perturbation.perturbations_between` reproduces
  any reachable ``(stats, load)`` pair value for value.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.cost_matrix import CostMatrix
from repro.costmodel.params import ClassStats, PathStatistics
from repro.errors import CostModelError, OptimizerError, ReproError, TraceError
from repro.search import get_strategy
from repro.synth import LevelSpec, linear_path_schema
from repro.trace import ContinuousAdvisor, generate_trace
from repro.whatif import AdvisorSession, MultiPathSession, Perturbation
from repro.whatif.perturbation import (
    LOAD_COMPONENTS,
    STATS_COMPONENTS,
    perturbations_between,
)
from repro.workload.load import LoadDistribution, LoadTriplet


def make_world(length=4, subclasses=(0, 1, 0, 0), prefix="L", objects=20_000):
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


def fresh_result(stats, load, strategy="dynamic_program"):
    return get_strategy(strategy).search(CostMatrix.compute(stats, load))


#: Smallest non-zero and largest value a drawn batch may give any
#: component, so compounded scalings stay far from underflow and
#: overflow and every matrix entry is finite.
BATCH_VALUE_RANGE = (1e-3, 1e7)


@st.composite
def perturbation_batches(draw):
    """A world and a legal batch of 1-200 perturbations over it.

    The (class, component) pairs come from a small drawn pool, so they
    repeat within a batch. A drawn perturbation is kept only when it
    leaves the chain legal and the value it sets zero or within
    :data:`BATCH_VALUE_RANGE`.
    """
    stats, load = make_world()
    scope = list(stats.path.scope)
    pool = draw(
        st.lists(
            st.tuples(
                st.sampled_from(scope),
                st.sampled_from(LOAD_COMPONENTS + STATS_COMPONENTS),
            ),
            min_size=1,
            max_size=8,
        )
    )
    current_stats, current_load = stats, load
    batch = []
    for _ in range(draw(st.integers(min_value=1, max_value=200))):
        class_name, component = draw(st.sampled_from(pool))
        mode = draw(st.sampled_from(["scale", "set"]))
        ceiling = 3.0 if mode == "scale" else 50_000.0
        value = draw(st.floats(min_value=0.0, max_value=ceiling))
        perturbation = Perturbation(class_name, component, mode, value)
        try:
            new_stats, new_load = perturbation.apply(current_stats, current_load)
        except CostModelError:
            continue
        touched = (
            new_load.triplet(class_name)
            if perturbation.kind == "load"
            else new_stats.stats_of(class_name)
        )
        updated = getattr(touched, component)
        low, high = BATCH_VALUE_RANGE
        if updated and not low <= updated <= high:
            continue
        current_stats, current_load = new_stats, new_load
        batch.append(perturbation)
    assume(batch)
    return stats, load, batch


def assert_same_session_state(left, right):
    """Value-equal inputs, entry-identical matrices, identical answers."""
    for name in left.stats.path.scope:
        assert left.stats.stats_of(name) == right.stats.stats_of(name)
        assert left.load.triplet(name) == right.load.triplet(name)
    for start, end in left.matrix.rows():
        for organization in left.matrix.organizations:
            assert left.matrix.cost(start, end, organization) == (
                right.matrix.cost(start, end, organization)
            )
    left_answer = left.advise()
    right_answer = right.advise()
    assert left_answer.cost == right_answer.cost
    assert left_answer.configuration == right_answer.configuration


class TestApplyMany:
    def test_empty_batch_rejected(self):
        stats, load = make_world()
        session = AdvisorSession(stats, load)
        with pytest.raises(OptimizerError, match="at least one"):
            session.apply_many([])

    def test_single_report_counts_one_recompute(self):
        stats, load = make_world()
        session = AdvisorSession(stats, load)
        batch = [
            Perturbation("L1", "insert", "scale", 2.0),
            Perturbation("L2", "delete", "scale", 3.0),
            Perturbation("L0", "objects", "scale", 1.5),
        ]
        report = session.apply_many(batch)
        assert session.applied_steps == 1
        assert session.batched_steps == 1
        assert report.dirty_count > 0

    def test_batched_state_matches_sequential(self):
        stats, load = make_world()
        batched = AdvisorSession(stats, load)
        sequential = AdvisorSession(stats, load)
        batch = [
            Perturbation("L1", "query", "scale", 2.0),
            Perturbation("L3", "insert", "set", 0.7),
            Perturbation("L2", "delete", "scale", 0.5),
            Perturbation("L3", "distinct", "scale", 2.0),
        ]
        batched.apply_many(batch)
        for perturbation in batch:
            sequential.perturb(perturbation)
        assert_same_session_state(batched, sequential)

    def test_batched_answer_matches_fresh(self):
        stats, load = make_world()
        session = AdvisorSession(stats, load)
        session.apply_many(
            [
                Perturbation("L0", "query", "scale", 3.0),
                Perturbation("L3", "insert", "scale", 4.0),
            ]
        )
        fresh = fresh_result(session.stats, session.load)
        result = session.advise()
        assert result.cost == fresh.cost
        assert result.configuration == fresh.configuration

    @given(drawn=perturbation_batches())
    @settings(max_examples=20, deadline=None)
    def test_any_batch_matches_one_by_one_loop(self, drawn):
        stats, load, batch = drawn
        batched = AdvisorSession(stats, load)
        sequential = AdvisorSession(stats, load)
        batched.apply_many(batch)
        for perturbation in batch:
            sequential.perturb(perturbation)
        assert_same_session_state(batched, sequential)

    @pytest.mark.parametrize(
        "bad",
        [
            # Objects drop below L1's distinct count one step before
            # distinct follows: only the intermediate state is illegal.
            Perturbation("L1", "objects", "set", 10.0),
            Perturbation("Nope", "query", "scale", 2.0),
            Perturbation("Nope", "objects", "scale", 2.0),
        ],
        ids=["illegal-class-stats", "unknown-load-class", "unknown-stats-class"],
    )
    def test_illegal_step_raises_like_the_loop(self, bad):
        stats, load = make_world()
        batch = [
            Perturbation("L2", "query", "scale", 2.0),
            Perturbation("L0", "fanout", "set", 2.0),
            bad,
            Perturbation("L1", "distinct", "set", 5.0),
        ]
        batched = AdvisorSession(stats, load)
        with pytest.raises(ReproError) as batch_error:
            batched.apply_many(batch)
        sequential = AdvisorSession(stats, load)
        with pytest.raises(ReproError) as loop_error:
            for perturbation in batch:
                sequential.perturb(perturbation)
        assert type(batch_error.value) is type(loop_error.value)
        assert str(batch_error.value) == str(loop_error.value)
        # The loop got exactly as far as the batch checked.
        assert sequential.applied_steps == 2
        # A failed batch applies nothing.
        assert batched.stats is stats and batched.load is load
        assert batched.applied_steps == 0

    @given(size=st.integers(min_value=1, max_value=200))
    @settings(max_examples=10, deadline=None)
    def test_load_only_batch_builds_one_distribution(self, size):
        stats, load = make_world()
        session = AdvisorSession(stats, load)
        scope = stats.path.scope
        batch = [
            Perturbation(
                scope[index % len(scope)],
                LOAD_COMPONENTS[index % len(LOAD_COMPONENTS)],
                "scale",
                1.25,
            )
            for index in range(size)
        ]
        built = {LoadDistribution: 0, PathStatistics: 0}

        def counted(cls):
            original = cls.__init__

            def init(self, *args, **kwargs):
                built[cls] += 1
                original(self, *args, **kwargs)

            return init

        with pytest.MonkeyPatch.context() as patch:
            for cls in built:
                patch.setattr(cls, "__init__", counted(cls))
            session.apply_many(batch)
        assert built == {LoadDistribution: 1, PathStatistics: 0}

    def test_multipath_apply_many(self):
        first = make_world(prefix="A")
        second = make_world(length=5, subclasses=(0, 0, 2, 0, 0), prefix="B")
        joint = MultiPathSession(
            [AdvisorSession(*first), AdvisorSession(*second)]
        )
        untouched_version = joint.sessions[1].version
        reports = joint.apply_many(
            {0: [Perturbation("A1", "insert", "scale", 2.0)]}
        )
        assert set(reports) == {0}
        assert joint.sessions[0].batched_steps == 1
        assert joint.sessions[1].version == untouched_version
        with pytest.raises(OptimizerError, match="out of range"):
            joint.apply_many({7: [Perturbation("A1", "insert", "scale", 2.0)]})


class TestPerturbationsBetween:
    def test_reproduces_target_values(self):
        stats, load = make_world()
        target_load = LoadDistribution(
            stats.path,
            {
                name: LoadTriplet(
                    query=triplet.query * 2.0,
                    insert=0.0,
                    delete=triplet.delete,
                )
                for name, triplet in load.items()
            },
        )
        per_class = {
            member: stats.stats_of(member)
            for position in range(1, stats.length + 1)
            for member in stats.members(position)
        }
        per_class["L1"] = ClassStats(objects=123.0, distinct=45.0, fanout=1.0)
        target_stats = PathStatistics(stats.path, per_class, stats.config)
        deltas = perturbations_between(stats, load, target_stats, target_load)
        current_stats, current_load = stats, load
        for perturbation in deltas:
            current_stats, current_load = perturbation.apply(
                current_stats, current_load
            )
        for name, triplet in target_load.items():
            assert current_load.triplet(name) == triplet
        for member in per_class:
            assert current_stats.stats_of(member) == target_stats.stats_of(member)

    def test_shrinking_objects_below_old_distinct_stays_applicable(self):
        stats, load = make_world()
        per_class = {
            member: stats.stats_of(member)
            for position in range(1, stats.length + 1)
            for member in stats.members(position)
        }
        # New objects drops below the old distinct count: applying the
        # objects delta first would violate validation, so the emission
        # order must move distinct first.
        per_class["L0"] = ClassStats(objects=20.0, distinct=5.0, fanout=1.0)
        target_stats = PathStatistics(stats.path, per_class, stats.config)
        deltas = perturbations_between(stats, load, target_stats, load)
        current_stats, current_load = stats, load
        for perturbation in deltas:
            current_stats, current_load = perturbation.apply(
                current_stats, current_load
            )
        assert current_stats.stats_of("L0") == per_class["L0"]

    def test_identical_pairs_yield_no_deltas(self):
        stats, load = make_world()
        assert perturbations_between(stats, load, stats, load) == []

    def test_different_paths_rejected(self):
        stats, load = make_world()
        other_stats, _other_load = make_world(prefix="Z")
        with pytest.raises(OptimizerError, match="different paths"):
            perturbations_between(stats, load, other_stats, load)


class TestContinuousAdvisor:
    def test_baseline_is_step_zero(self):
        stats, load = make_world()
        advisor = ContinuousAdvisor(stats, load, window=50)
        assert len(advisor.steps) == 1
        baseline = advisor.steps[0]
        fresh = fresh_result(stats, load, "incremental_dynamic_program")
        assert baseline.cost == fresh.cost
        assert baseline.result.configuration == fresh.configuration
        assert advisor.readvise_count == 0

    def test_every_readvise_matches_fresh_pipeline(self):
        stats, load = make_world()
        trace = generate_trace(stats.path, "mixed_drift", 600, seed=11)
        advisor = ContinuousAdvisor(
            stats, load, window=100, slide=50, threshold=0.15, hysteresis=1
        )
        fired = 0
        for event in trace:
            step = advisor.push(event)
            if step is None:
                continue
            fired += 1
            fresh = fresh_result(advisor.session.stats, advisor.session.load)
            assert step.cost == fresh.cost
            assert step.result.configuration == fresh.configuration
            assert step.perturbations > 0
            assert step.report is not None
        assert fired > 0
        assert advisor.readvise_count == fired
        assert "re-advises" in advisor.describe()

    def test_flush_applies_pending_delta(self):
        stats, load = make_world()
        trace = generate_trace(stats.path, "edge_drift", 220, seed=2)
        # A threshold no window can cross: everything is held.
        advisor = ContinuousAdvisor(
            stats, load, window=100, threshold=1e12, hysteresis=1
        )
        advisor.process(trace)
        assert advisor.readvise_count == 0
        assert advisor.windows_held == advisor.windows_seen > 0
        step = advisor.flush()
        assert step is not None and step.forced
        fresh = fresh_result(advisor.session.stats, advisor.session.load)
        assert step.cost == fresh.cost
        # Nothing pending afterwards.
        assert advisor.flush() is None

    def test_replay_convenience_returns_full_timeline(self):
        stats, load = make_world()
        trace = generate_trace(stats.path, "bursty", 400, seed=5)
        advisor = ContinuousAdvisor(
            stats, load, window=80, threshold=0.2, hysteresis=2
        )
        steps = advisor.replay(trace)
        assert steps is advisor.steps
        assert steps[0].window is None
        assert advisor.events_seen == 400

    @pytest.mark.parametrize("deadline_ms", [-1.0, float("nan"), float("inf")])
    def test_invalid_deadline_rejected_in_milliseconds(self, deadline_ms):
        """The constructor names the milliseconds it was given, not a
        budget converted to seconds at the first re-advise."""
        stats, load = make_world()
        with pytest.raises(TraceError, match="milliseconds") as caught:
            ContinuousAdvisor(stats, load, window=50, deadline_ms=deadline_ms)
        assert f"got {deadline_ms}" in str(caught.value)
        assert "number of seconds" not in str(caught.value)

    def test_zero_deadline_accepted(self):
        stats, load = make_world()
        advisor = ContinuousAdvisor(stats, load, window=50, deadline_ms=0)
        assert advisor.deadline_ms == 0

    def test_held_windows_do_not_touch_the_session(self):
        stats, load = make_world()
        trace = generate_trace(stats.path, "stationary", 300, seed=4)
        advisor = ContinuousAdvisor(
            stats, load, window=60, threshold=1e12, hysteresis=1
        )
        version_before = advisor.session.version
        advisor.process(trace)
        assert advisor.session.version == version_before
        assert advisor.session.applied_steps == 0


@st.composite
def replay_worlds(draw):
    length = draw(st.integers(min_value=2, max_value=4))
    subclasses = tuple(
        draw(st.integers(min_value=0, max_value=1)) for _ in range(length)
    )
    stats, load = make_world(length=length, subclasses=subclasses)
    regime = draw(st.sampled_from(["stationary", "edge_drift", "mixed_drift", "bursty"]))
    seed = draw(st.integers(min_value=0, max_value=1000))
    window = draw(st.sampled_from([40, 60, 100]))
    threshold = draw(st.sampled_from([0.05, 0.2, 0.5]))
    hysteresis = draw(st.integers(min_value=1, max_value=2))
    track = draw(st.booleans())
    return stats, load, regime, seed, window, threshold, hysteresis, track


class TestReplayEqualsFreshAdvise:
    @given(world=replay_worlds())
    @settings(max_examples=15, deadline=None)
    def test_replay_pins_to_from_scratch_advise(self, world):
        """The tentpole invariant: every re-advise point of a continuous
        replay is bit-identical to a from-scratch advise on the session's
        current inputs — including the forced end-of-trace flush."""
        (
            stats,
            load,
            regime,
            seed,
            window,
            threshold,
            hysteresis,
            track,
        ) = world
        trace = generate_trace(stats.path, regime, 4 * window, seed=seed)
        advisor = ContinuousAdvisor(
            stats,
            load,
            window=window,
            threshold=threshold,
            hysteresis=hysteresis,
            track_statistics=track,
        )
        for event in trace:
            step = advisor.push(event)
            if step is None:
                continue
            fresh = fresh_result(advisor.session.stats, advisor.session.load)
            assert step.cost == fresh.cost
            assert step.result.configuration == fresh.configuration
        step = advisor.flush()
        if step is not None:
            fresh = fresh_result(advisor.session.stats, advisor.session.load)
            assert step.cost == fresh.cost
            assert step.result.configuration == fresh.configuration
