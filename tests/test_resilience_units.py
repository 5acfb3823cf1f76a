"""Unit tests for the resilience primitives.

Deadlines, degradation accounting and the exact → last-known-good →
overrun-DP ladder — each exercised in isolation with deterministic fake
clocks, no sleeping and no real worker pools.
"""

from __future__ import annotations

import pytest

from repro.core.cost_matrix import CostMatrix
from repro.errors import DeadlineExceeded, ResilienceError
from repro.resilience import Deadline, DegradationReport, degraded_search
from repro.resilience.degrade import LAST_KNOWN_GOOD
from repro.resilience.faults import FakeClock
from repro.search import available_strategies, get_strategy
from test_search_strategies import synth_inputs


def expired_deadline() -> Deadline:
    """A deadline that has already run out on a fake clock."""
    clock = FakeClock()
    deadline = Deadline(0.001, clock=clock)
    clock.advance(1.0)
    return deadline


# ----------------------------------------------------------------------
# Deadline
# ----------------------------------------------------------------------
class TestDeadline:
    def test_fresh_deadline_is_not_expired(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        assert not deadline.expired
        assert deadline.remaining() == 1.0
        deadline.check()  # must not raise

    def test_expiry_tracks_the_clock(self):
        clock = FakeClock()
        deadline = Deadline(0.5, clock=clock)
        clock.advance(0.25)
        assert not deadline.expired
        assert deadline.elapsed() == 0.25
        clock.advance(0.25)
        assert deadline.expired
        assert deadline.remaining() == 0.0

    def test_check_raises_with_label_and_budget(self):
        clock = FakeClock()
        deadline = Deadline(0.1, clock=clock)
        clock.advance(0.2)
        with pytest.raises(DeadlineExceeded, match="branch_and_bound"):
            deadline.check("branch_and_bound")

    def test_after_ms_converts_milliseconds(self):
        clock = FakeClock()
        deadline = Deadline.after_ms(250.0, clock=clock)
        assert deadline.budget_seconds == 0.25

    @pytest.mark.parametrize("budget", [-1.0, float("inf"), float("nan")])
    def test_invalid_budgets_are_rejected(self, budget):
        with pytest.raises(ResilienceError):
            Deadline(budget)

    def test_zero_budget_is_immediately_expired(self):
        deadline = Deadline(0.0, clock=FakeClock())
        assert deadline.expired


# ----------------------------------------------------------------------
# DegradationReport
# ----------------------------------------------------------------------
class TestDegradationReport:
    def test_empty_report_is_falsy(self):
        report = DegradationReport()
        assert not report
        assert len(report) == 0
        assert report.describe() == ""

    def test_record_and_filtered_count(self):
        report = DegradationReport()
        report.record("matrix", "serial_fallback", "BrokenProcessPool", rows=3)
        report.record("session", "dynamic_program:overrun", "deadline_expired")
        report.record("session", "last_known_good", "deadline_expired")
        assert bool(report)
        assert report.count() == 3
        assert report.count(layer="session") == 2
        assert report.count(layer="session", action="last_known_good") == 1
        assert report.count(layer="kernel") == 0

    def test_describe_carries_layer_action_reason_and_detail(self):
        report = DegradationReport()
        report.record("matrix", "serial_fallback", "OSError", workers=2)
        assert (
            report.describe()
            == "[matrix] serial_fallback: OSError workers=2"
        )

    def test_to_dicts_round_trips_detail(self):
        report = DegradationReport()
        report.record("kernel", "legacy_fallback", "numpy unavailable", rows=55)
        assert report.to_dicts() == [
            {
                "layer": "kernel",
                "action": "legacy_fallback",
                "reason": "numpy unavailable",
                "detail": {"rows": 55},
            }
        ]


# ----------------------------------------------------------------------
# the degradation ladder
# ----------------------------------------------------------------------
class TestDegradedSearch:
    def test_last_known_good_rung_reprices_against_current_matrix(
        self, fig7_stats, fig7_load
    ):
        matrix = CostMatrix.compute(fig7_stats, fig7_load)
        exact = get_strategy("dynamic_program").search(matrix)
        report = DegradationReport()
        result = degraded_search(
            matrix,
            last_known_good=exact,
            degradation=report,
        )
        assert result.strategy == LAST_KNOWN_GOOD
        assert result.extras["rung"] == LAST_KNOWN_GOOD
        assert result.configuration == exact.configuration
        assert result.cost == exact.cost  # re-priced, same matrix
        assert report.count(action=LAST_KNOWN_GOOD) == 1

    def test_overrun_rung_returns_the_dp_optimum(self):
        matrix = CostMatrix.compute(*synth_inputs(8, 4))
        report = DegradationReport()
        result = degraded_search(matrix, degradation=report)
        exact = get_strategy("dynamic_program").search(matrix)
        assert result.extras["rung"] == "dynamic_program:overrun"
        assert result.extras["degraded"] is True
        assert result.cost == exact.cost
        assert result.configuration == exact.configuration
        assert report.count(action="dynamic_program:overrun") == 1


# ----------------------------------------------------------------------
# deadline threading through the strategies
# ----------------------------------------------------------------------
class TestStrategyDeadlines:
    @pytest.mark.parametrize("name", available_strategies())
    def test_expired_deadline_interrupts_every_strategy(
        self, name, fig7_stats, fig7_load
    ):
        matrix = CostMatrix.compute(fig7_stats, fig7_load)
        clock = FakeClock()
        deadline = Deadline(0.001, clock=clock)
        clock.advance(1.0)
        with pytest.raises(DeadlineExceeded):
            get_strategy(name).search(matrix, deadline=deadline)

    @pytest.mark.parametrize("name", available_strategies())
    def test_generous_deadline_changes_nothing(
        self, name, fig7_stats, fig7_load
    ):
        matrix = CostMatrix.compute(fig7_stats, fig7_load)
        unbounded = get_strategy(name).search(matrix)
        bounded = get_strategy(name).search(
            matrix, deadline=Deadline(3600.0, clock=FakeClock())
        )
        assert bounded.cost == unbounded.cost
        assert bounded.configuration == unbounded.configuration

    def test_interrupted_refine_leaves_session_consistent(
        self, fig7_stats, fig7_load
    ):
        """A mid-refine expiry must not corrupt the incremental tables."""
        from repro.whatif import AdvisorSession, Perturbation

        session = AdvisorSession(fig7_stats, fig7_load)
        exact_baseline = session.advise()
        perturbation = Perturbation(
            class_name="Division", component="delete", mode="scale", value=9.0
        )
        session.perturb(perturbation)
        clock = FakeClock()
        deadline = Deadline(0.001, clock=clock)
        clock.advance(1.0)
        degraded = session.advise(deadline=deadline)
        assert degraded.extras.get("degraded") is True
        assert session.degradation.count(layer="session") >= 1
        # The degraded answer did not consume the dirty set: the next
        # unbounded advise refines it and is bit-identical to a fresh
        # pipeline run over the current inputs.
        recovered = session.advise()
        from repro.core.advisor import advise

        fresh = advise(
            session.stats,
            session.load,
            strategy="dynamic_program",
            run_baselines=False,
        )
        assert recovered.cost == fresh.optimal.cost
        assert recovered.configuration == fresh.optimal.configuration
        assert recovered.cost != exact_baseline.cost  # the perturbation bit


# ----------------------------------------------------------------------
# deadline-bounded advise() and optimize_multipath()
# ----------------------------------------------------------------------
class TestBoundedPipelines:
    def test_advise_degrades_and_skips_baselines(self, fig7_stats, fig7_load):
        from repro.core.advisor import advise

        clock = FakeClock()
        deadline = Deadline(0.001, clock=clock)
        clock.advance(1.0)
        report = DegradationReport()
        bounded = advise(
            fig7_stats, fig7_load, deadline=deadline, degradation=report
        )
        assert bounded.optimal.extras.get("degraded") is True
        assert bounded.dynprog is None
        assert bounded.single_index_costs == {}
        assert report.count(layer="advise", action="exact_abandoned") == 1
        assert report.count(layer="advise", action="baselines_skipped") == 1

    def test_expired_advise_answers_with_the_dp_optimum(self):
        """With nothing known good, a missed deadline costs latency, not
        quality: the overrun rung is the exact dynamic program."""
        from repro.core.advisor import advise

        stats, load = synth_inputs(8, 4)
        bounded = advise(stats, load, deadline=expired_deadline())
        exact = advise(
            stats, load, strategy="dynamic_program", run_baselines=False
        )
        assert bounded.optimal.extras["rung"] == "dynamic_program:overrun"
        assert bounded.optimal.extras["degraded"] is True
        assert bounded.optimal.cost == exact.optimal.cost
        assert bounded.optimal.configuration == exact.optimal.configuration

    def test_first_session_advise_under_expired_deadline(self):
        """A new session's first bounded advise answers from the overrun
        rung and commits nothing."""
        from repro.whatif import AdvisorSession

        stats, load = synth_inputs(8, 4)
        session = AdvisorSession(stats, load)
        exact = get_strategy("dynamic_program").search(session.matrix)
        for _ in range(2):
            # Had the first answer been committed, the second bounded
            # call would return it from the cache without a rung.
            degraded = session.advise(deadline=expired_deadline())
            assert degraded.extras["rung"] == "dynamic_program:overrun"
            assert degraded.extras["degraded"] is True
            assert degraded.cost == exact.cost
            assert degraded.configuration == exact.configuration
        assert (
            session.degradation.count(
                layer="session", action="dynamic_program:overrun"
            )
            == 2
        )
        recovered = session.advise()
        assert "rung" not in recovered.extras
        assert recovered.strategy == "incremental_dynamic_program"
        assert recovered.extras["relaxed_positions"] == stats.length
        assert recovered.cost == exact.cost
        assert recovered.configuration == exact.configuration

    def test_multipath_expired_deadline_degrades_every_stage(
        self, fig7_stats, fig7_load
    ):
        from repro.core.multipath import PathWorkload, optimize_multipath

        workloads = [PathWorkload(stats=fig7_stats, load=fig7_load)] * 2
        clock = FakeClock()
        deadline = Deadline(0.001, clock=clock)
        clock.advance(1.0)
        report = DegradationReport()
        bounded = optimize_multipath(
            workloads, deadline=deadline, degradation=report
        )
        assert not bounded.exact
        assert bounded.degradations  # every fallback is listed
        assert any(
            "joint_independent" in entry for entry in bounded.degradations
        )
        assert report.count(layer="multipath") == len(bounded.degradations)
        # Degraded selections are still valid, fully priced selections.
        unbounded = optimize_multipath(workloads)
        assert bounded.total_cost >= unbounded.total_cost
        assert unbounded.degradations == ()

    def test_multipath_generous_deadline_is_bit_identical(
        self, fig7_stats, fig7_load
    ):
        from repro.core.multipath import PathWorkload, optimize_multipath

        workloads = [PathWorkload(stats=fig7_stats, load=fig7_load)] * 2
        unbounded = optimize_multipath(workloads)
        bounded = optimize_multipath(
            workloads, deadline=Deadline(3600.0, clock=FakeClock())
        )
        assert bounded.total_cost == unbounded.total_cost
        assert bounded.configurations == unbounded.configurations
        assert bounded.degradations == ()
