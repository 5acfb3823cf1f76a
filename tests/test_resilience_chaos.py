"""Chaos suite: seeded infrastructure failures against the full pipeline.

Every test injects faults through :class:`repro.resilience.faults.FaultInjector`
and then asserts two things the resilience layer promises:

1. the pipeline **completes** — a replay never dies or hangs because a
   worker pool crashed, a trace line was garbage, or a deadline expired;
2. every injected fault leaves a **visible record** — a degradation
   event, a skip entry in the :class:`~repro.trace.TraceReadReport`, or
   a degraded step rung. Nothing is swallowed silently.

All randomness is seeded; a failing chaos test replays exactly.
"""

from __future__ import annotations

import pytest
from conftest import assert_same_bits

from repro.core.advisor import advise
from repro.core.cost_matrix import CostMatrix
from repro.resilience import restore_advisor, save_advisor
from repro.resilience.faults import FaultInjector
from repro.trace import (
    ContinuousAdvisor,
    TraceReadReport,
    generate_trace,
    iter_trace,
    write_trace,
)

from test_resilience_checkpoint import make_world, timeline


@pytest.mark.timeout(120)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestPoolCrashChaos:
    def test_replay_survives_pool_crashes(self):
        """Worker-pool crashes degrade to serial; the replay completes
        bit-identically and each fallback is recorded."""
        stats, load = make_world()
        trace = generate_trace(stats.path, "edge_drift", 400, seed=7)

        clean = ContinuousAdvisor(stats, load, window=80, workers=0)
        clean.replay(trace)

        injector = FaultInjector(seed=7)
        chaotic = ContinuousAdvisor(stats, load, window=80, workers=2)
        with injector.broken_pool(times=100) as crashes:
            chaotic.replay(trace)

        assert crashes[0] > 0, "the fault never fired"
        assert timeline(chaotic) == timeline(clean)
        fallbacks = [
            event
            for event in chaotic.degradation.events
            if event.layer == "matrix" and event.action == "serial_fallback"
        ]
        assert fallbacks, "pool crash produced no degradation record"
        assert all("BrokenProcessPool" in e.reason for e in fallbacks)
        # every injection is in the injector's own log too
        assert sum(
            1 for kind, _ in injector.log if kind == "broken_pool"
        ) == crashes[0]

    def test_transient_crash_recovers_through_retry(self):
        """A single crash is absorbed by the second attempt: the pool is
        retried, succeeds, and no serial fallback is recorded."""
        import repro.core.cost_matrix as cost_matrix_module

        stats, load = make_world()
        naps: list[float] = []
        original_sleep = cost_matrix_module._sleep
        cost_matrix_module._sleep = naps.append
        try:
            with FaultInjector(seed=1).broken_pool(times=1):
                matrix = CostMatrix.compute(stats, load, workers=2)
        finally:
            cost_matrix_module._sleep = original_sleep
        assert matrix.parallel_fallback_reason is None
        assert naps == [0.05]
        serial = CostMatrix.compute(stats, load, workers=0)
        assert_same_bits(matrix, serial)


@pytest.mark.timeout(120)
class TestCorruptTraceChaos:
    def test_replay_skips_exactly_the_corrupted_lines(self, tmp_path):
        stats, load = make_world()
        events = generate_trace(stats.path, "mixed_drift", 600, seed=13)
        path = tmp_path / "stream.jsonl"
        write_trace(events, path)

        injector = FaultInjector(seed=13)
        corrupted = injector.corrupt_trace(path, corruptions=6)
        assert len(corrupted) == 6

        report = TraceReadReport()
        advisor = ContinuousAdvisor(stats, load, window=100)
        advisor.replay(iter_trace(path, on_error="collect", report=report))

        assert report.skipped_lines == corrupted
        assert all(message for _line, message in report.skipped)
        assert report.events == len(events) - len(corrupted)
        assert advisor.events_seen == report.events

    def test_collect_and_skip_agree_on_what_survives(self, tmp_path):
        stats, _load = make_world()
        events = generate_trace(stats.path, "bursty", 200, seed=3)
        path = tmp_path / "stream.jsonl"
        write_trace(events, path)
        FaultInjector(seed=3).corrupt_trace(path, corruptions=4)

        collected = list(iter_trace(path, on_error="collect"))
        skipped = list(iter_trace(path, on_error="skip"))
        assert [e.to_dict() for e in collected] == [
            e.to_dict() for e in skipped
        ]


@pytest.mark.timeout(120)
class TestDeadlineChaos:
    def test_expired_deadlines_degrade_every_step_but_finish(self):
        """With a zero budget every advise degrades — and the replay
        still consumes the whole trace, recording each rung."""
        stats, load = make_world()
        trace = generate_trace(stats.path, "edge_drift", 300, seed=5)
        advisor = ContinuousAdvisor(
            stats, load, window=60, threshold=0.05, deadline_ms=0.0
        )
        advisor.replay(trace)

        assert advisor.events_seen == len(trace)
        assert advisor.steps, "no steps emitted"
        assert all(step.rung != "exact" for step in advisor.steps)
        assert advisor.degradation, "deadline expiry left no record"
        assert advisor.degradation.count(layer="session") >= len(advisor.steps)
        # Nothing degraded is ever committed, so every step — the last
        # one included — is the overrun DP on the session's current
        # inputs: the optimum a fresh advise computes.
        fresh = advise(
            advisor.session.stats,
            advisor.session.load,
            strategy="dynamic_program",
            run_baselines=False,
        ).optimal
        last = advisor.steps[-1]
        assert last.rung == "dynamic_program:overrun"
        assert last.result.cost == fresh.cost
        assert last.result.configuration == fresh.configuration

    def test_unbounded_advisor_stays_exact(self):
        stats, load = make_world()
        trace = generate_trace(stats.path, "edge_drift", 300, seed=5)
        advisor = ContinuousAdvisor(stats, load, window=60, threshold=0.05)
        advisor.replay(trace)
        assert all(step.rung == "exact" for step in advisor.steps)
        assert not advisor.degradation


@pytest.mark.timeout(180)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestCombinedChaos:
    def test_everything_at_once(self, tmp_path):
        """Pool crashes + corrupt trace + a mid-stream kill/restore, in
        one run: the trace completes and every fault is accounted for."""
        stats, load = make_world()
        events = generate_trace(stats.path, "mixed_drift", 500, seed=21)
        path = tmp_path / "stream.jsonl"
        write_trace(events, path)

        injector = FaultInjector(seed=21)
        corrupted = injector.corrupt_trace(path, corruptions=5)

        report = TraceReadReport()
        survivors = list(iter_trace(path, on_error="collect", report=report))
        cut = len(survivors) // 2

        advisor = ContinuousAdvisor(stats, load, window=80, workers=2)
        with injector.broken_pool(times=100) as crashes:
            advisor.process(survivors[:cut])
            checkpoint = tmp_path / "mid.ckpt"
            save_advisor(advisor, checkpoint)
            del advisor  # the process dies here

            resumed = restore_advisor(checkpoint, stats, load, workers=2)
            resumed.process(survivors[cut:])
            resumed.flush()

        # the stream completed despite everything
        assert resumed.events_seen == len(events) - len(corrupted)
        # fault accounting: corrupt lines in the read report ...
        assert report.skipped_lines == corrupted
        # ... pool crashes in the degradation report (when the pool was
        # actually exercised this run) ...
        if crashes[0]:
            assert resumed.degradation.count(
                layer="matrix", action="serial_fallback"
            )
        # ... and the injector's own log covers every injection made.
        injected = [kind for kind, _ in injector.log]
        assert injected.count("corrupt_trace") == len(corrupted)
        assert injected.count("broken_pool") == crashes[0]

        # despite the chaos, the answers match a clean serial run
        clean = ContinuousAdvisor(stats, load, window=80, workers=0)
        clean.process(survivors)
        clean.flush()
        assert timeline(resumed) == timeline(clean)
