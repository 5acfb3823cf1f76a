"""Continuous trace-driven advising: stream in, recommendations out.

:class:`ContinuousAdvisor` is the front door the pipeline lacked: it
consumes a raw operation stream (:class:`~repro.trace.events.TraceEvent`
by :class:`~repro.trace.events.TraceEvent`), folds it into windowed
workload estimates (:class:`~repro.trace.window.WindowAggregator`),
decides when the drift is real
(:class:`~repro.trace.drift.DriftDetector`), and only then disturbs the
incremental :class:`~repro.whatif.AdvisorSession` — handing it the
*accumulated* delta as one batch through
:meth:`~repro.whatif.AdvisorSession.apply_many`, so a burst of drifting
windows costs one dirty-set-union recompute and one search refinement,
not one per event or even one per window.

The guarantee carried over from ``repro.whatif``: at every re-advise
point the emitted :class:`ReplayStep` result is bit-identical to a
from-scratch ``advise()`` over the session's current inputs (the
Hypothesis property in ``tests/test_trace_replay.py`` pins it). Held
windows change nothing at all — the pending delta is recomputed against
the session state at each window, so skipping windows never loses
information, it only defers it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Iterable

from repro.core.cost_matrix import RecomputeReport
from repro.costmodel.params import PathStatistics
from repro.errors import TraceError
from repro.obs.recorder import resolve_recorder
from repro.resilience import Deadline, DegradationReport
from repro.search import SearchResult
from repro.trace.drift import DriftDecision, DriftDetector
from repro.trace.events import TraceEvent
from repro.trace.window import WindowAggregator
from repro.whatif import AdvisorSession, Perturbation
from repro.whatif.perturbation import perturbations_between
from repro.workload.load import LoadDistribution


@dataclass(frozen=True)
class ReplayStep:
    """One re-advise point of the replay timeline.

    ``index`` 0 is the baseline recommendation before any event;
    ``window`` is the aggregator window that triggered the step
    (``None`` for the baseline and for a forced :meth:`~ContinuousAdvisor.flush`);
    ``perturbations`` is the size of the batch handed to
    :meth:`~repro.whatif.AdvisorSession.apply_many`; ``report`` is that
    batch's single :class:`~repro.core.cost_matrix.RecomputeReport`.
    ``rung`` names the degradation-ladder rung that produced the result:
    ``"exact"`` in normal operation, ``"last_known_good"`` or
    ``"dynamic_program:overrun"`` when a deadline forced a fallback.
    """

    index: int
    window: int | None
    events_seen: int
    change: float
    perturbations: int
    report: RecomputeReport | None
    result: SearchResult
    configuration_changed: bool
    forced: bool = False
    rung: str = "exact"

    @property
    def cost(self) -> float:
        """The recommended configuration's processing cost at this point."""
        return self.result.cost

    def describe(self) -> str:
        """One-line summary for logs."""
        origin = (
            "baseline"
            if self.window is None and not self.forced
            else ("final flush" if self.forced else f"window {self.window}")
        )
        changed = "changed" if self.configuration_changed else "unchanged"
        rung = "" if self.rung == "exact" else f", rung {self.rung}"
        return (
            f"step {self.index} ({origin}, {self.events_seen} events): "
            f"cost {self.cost:.2f}, configuration {changed}{rung}"
        )

    def to_dict(self) -> dict[str, Any]:
        """The JSON object form accepted by :meth:`from_dict`.

        Complete enough to resurrect the step bit-identically: the
        result goes through :meth:`~repro.search.SearchResult.to_dict`
        and float values ride through JSON's exact ``repr`` round-trip
        for doubles.
        """
        report = None
        if self.report is not None:
            report = {
                "mode": self.report.mode,
                "reason": self.report.reason,
                "recomputed_rows": [list(row) for row in self.report.recomputed_rows],
                "patched_rows": [list(row) for row in self.report.patched_rows],
                "total_rows": self.report.total_rows,
            }
        return {
            "index": self.index,
            "window": self.window,
            "events_seen": self.events_seen,
            "change": self.change,
            "perturbations": self.perturbations,
            "forced": self.forced,
            "rung": self.rung,
            "configuration_changed": self.configuration_changed,
            "report": report,
            "result": self.result.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ReplayStep":
        """Rebuild a step from its :meth:`to_dict` form."""
        report = None
        if data.get("report") is not None:
            raw = data["report"]
            report = RecomputeReport(
                mode=raw["mode"],
                reason=raw["reason"],
                recomputed_rows=tuple(
                    tuple(row) for row in raw["recomputed_rows"]
                ),
                patched_rows=tuple(tuple(row) for row in raw["patched_rows"]),
                total_rows=raw["total_rows"],
            )
        return cls(
            index=data["index"],
            window=data["window"],
            events_seen=data["events_seen"],
            change=data["change"],
            perturbations=data["perturbations"],
            report=report,
            result=SearchResult.from_dict(data["result"]),
            configuration_changed=data["configuration_changed"],
            forced=data["forced"],
            rung=data.get("rung", "exact"),
        )


class ContinuousAdvisor:
    """Drive an incremental advisor session from an operation stream.

    Parameters
    ----------
    stats / load:
        The baseline inputs (the load is the advisor's initial workload
        model; the stream's windowed estimates drift away from it).
    window / slide / window_seconds / slide_seconds / rate_scale / track_statistics:
        Windowing knobs, see :class:`~repro.trace.window.WindowAggregator`
        (count, wall-clock and hybrid window modes).
    threshold / hysteresis:
        Drift knobs, see :class:`~repro.trace.drift.DriftDetector`.
        ``threshold="auto"`` scales the threshold with the window's
        sampling noise (:meth:`~repro.trace.drift.DriftDetector.adaptive`,
        ``~ 1/sqrt(window)``; count and hybrid modes only — a wall-clock
        window has no fixed event count to scale against).
    deadline_ms:
        Per-re-advise wall-clock budget in milliseconds, finite and
        non-negative (``0`` expires at once); ``None`` (default) leaves
        every re-advise exact. When set, each
        :meth:`~repro.whatif.AdvisorSession.advise` call gets a fresh
        :class:`~repro.resilience.Deadline` and may answer from the
        degradation ladder instead of the exact search; the emitted
        step's ``rung`` says which rung answered.
    degradation:
        An optional :class:`~repro.resilience.DegradationReport` shared
        with the session — every fallback anywhere in the stack
        (deadline rungs, serial matrix fallbacks) lands in it. One is
        created when omitted; read it at ``advisor.degradation``.
    recorder:
        An optional :class:`~repro.obs.Recorder` shared with the
        session: stream counters (``replay.events``, ``replay.windows``,
        ``replay.windows_held``, ``replay.readvises``, per-rung
        ``replay.rung``) plus the session's spans land in one profile.
        The hot push path pays one pre-resolved counter ``add`` per
        event; with the default ``None`` that is a no-op call.
    session_options:
        Forwarded to :class:`~repro.whatif.AdvisorSession` (``strategy``,
        ``organizations``, ``include_noindex``, ``workers``, ...).
    """

    def __init__(
        self,
        stats: PathStatistics,
        load: LoadDistribution,
        *,
        window: int | None = None,
        slide: int | None = None,
        window_seconds: float | None = None,
        slide_seconds: float | None = None,
        rate_scale: float = 1.0,
        track_statistics: bool = False,
        threshold: float | str = 0.2,
        hysteresis: int = 2,
        deadline_ms: float | None = None,
        degradation: DegradationReport | None = None,
        recorder=None,
        **session_options,
    ) -> None:
        # Checked here, in the caller's unit: the Deadline built at each
        # re-advise would only report the budget converted to seconds.
        if deadline_ms is not None and not 0.0 <= deadline_ms < math.inf:
            raise TraceError(
                f"deadline_ms must be a finite non-negative number of "
                f"milliseconds, got {deadline_ms}"
            )
        self.deadline_ms = deadline_ms
        #: Every fallback taken anywhere in the stack, shared with the
        #: session (and through it the matrix layer).
        self.degradation = (
            degradation if degradation is not None else DegradationReport()
        )
        #: Tracing spans and metrics, shared with the session.
        self.recorder = resolve_recorder(recorder)
        # Counters on the per-event hot path are resolved once here, so
        # push() pays one bound-method call per event instead of a
        # registry lookup (a no-op singleton when recording is off).
        self._events_counter = self.recorder.counter("replay.events")
        self._windows_counter = self.recorder.counter("replay.windows")
        self._held_counter = self.recorder.counter("replay.windows_held")
        self._readvises_counter = self.recorder.counter("replay.readvises")
        #: The clock deadlines are measured against; tests and the fault
        #: harness substitute a fake to force deterministic expiry.
        self._deadline_clock = time.monotonic
        self.session = AdvisorSession(
            stats,
            load,
            degradation=self.degradation,
            recorder=self.recorder,
            **session_options,
        )
        self.aggregator = WindowAggregator(
            stats,
            window,
            slide=slide,
            window_seconds=window_seconds,
            slide_seconds=slide_seconds,
            rate_scale=rate_scale,
            track_statistics=track_statistics,
        )
        if threshold == "auto":
            if window is None:
                raise TraceError(
                    "threshold='auto' scales with the count window; "
                    "wall-clock windows need an explicit threshold"
                )
            self.detector = DriftDetector.adaptive(
                window, hysteresis=hysteresis
            )
        elif isinstance(threshold, str):
            raise TraceError(
                f"threshold must be a number or 'auto', got {threshold!r}"
            )
        else:
            self.detector = DriftDetector(
                threshold=threshold, hysteresis=hysteresis
            )
        self.detector.reset(load, stats if track_statistics else None)
        baseline = self._advise()
        #: The replay timeline: one :class:`ReplayStep` per re-advise.
        self.steps: list[ReplayStep] = [
            ReplayStep(
                index=0,
                window=None,
                events_seen=0,
                change=0.0,
                perturbations=0,
                report=None,
                result=baseline,
                configuration_changed=False,
                rung=baseline.extras.get("rung", "exact"),
            )
        ]
        #: Windows observed without firing (the thrash the detector saved).
        self.windows_held = 0
        self._pending: list[Perturbation] = []

    # ------------------------------------------------------------------
    # streaming
    # ------------------------------------------------------------------
    def push(self, event: TraceEvent) -> ReplayStep | None:
        """Consume one event; returns a step when it caused a re-advise."""
        self._events_counter.add()
        snapshot = self.aggregator.push(event)
        if snapshot is None:
            return None
        self._windows_counter.add()
        decision = self.detector.observe(
            snapshot.load,
            snapshot.stats if self.aggregator.track_statistics else None,
        )
        # The pending batch always describes "session state -> newest
        # window" as absolute set-deltas, so it subsumes every held
        # window before it; holding defers work, never drops it.
        self._pending = perturbations_between(
            self.session.stats, self.session.load, snapshot.stats, snapshot.load
        )
        if not decision.fired:
            self.windows_held += 1
            self._held_counter.add()
            return None
        return self._readvise(snapshot.index, decision, forced=False)

    def process(self, events: Iterable[TraceEvent]) -> list[ReplayStep]:
        """Consume a whole event sequence; returns the new re-advise steps."""
        steps: list[ReplayStep] = []
        for event in events:
            step = self.push(event)
            if step is not None:
                steps.append(step)
        return steps

    def replay(
        self, events: Iterable[TraceEvent], *, flush: bool = True
    ) -> list[ReplayStep]:
        """Full-trace convenience: baseline + :meth:`process` + :meth:`flush`.

        Returns the complete timeline including the baseline step.
        """
        self.process(events)
        if flush:
            self.flush()
        return self.steps

    def flush(self) -> ReplayStep | None:
        """Apply any pending (held) delta now, detector notwithstanding.

        The end-of-trace step: windows the detector held back still
        carry the newest workload estimate; flushing folds it in so the
        final recommendation reflects everything the stream said.
        Returns ``None`` when nothing is pending.
        """
        if not self._pending:
            return None
        step = self._readvise(None, None, forced=True)
        self.detector.reset(
            self.session.load,
            self.session.stats if self.aggregator.track_statistics else None,
        )
        return step

    # ------------------------------------------------------------------
    # re-advising
    # ------------------------------------------------------------------
    def _readvise(
        self,
        window: int | None,
        decision: DriftDecision | None,
        forced: bool,
    ) -> ReplayStep | None:
        if not self._pending:
            # A fired decision with an empty delta cannot happen (firing
            # requires a component difference), but guard the seam.
            return None
        batch = self._pending
        self._pending = []
        with self.recorder.span(
            "replay.readvise", batch=len(batch), forced=forced
        ):
            report = self.session.apply_many(batch)
            result = self._advise()
        previous = self.steps[-1].result.configuration
        step = ReplayStep(
            index=len(self.steps),
            window=window,
            events_seen=self.aggregator.events_seen,
            change=decision.change if decision is not None else 0.0,
            perturbations=len(batch),
            report=report,
            result=result,
            configuration_changed=result.configuration != previous,
            forced=forced,
            rung=result.extras.get("rung", "exact"),
        )
        self._readvises_counter.add()
        if step.rung != "exact":
            self.recorder.counter("replay.rung", rung=step.rung).add()
        self.steps.append(step)
        return step

    def _advise(self) -> SearchResult:
        """One (possibly deadline-bounded) advise over the session."""
        if self.deadline_ms is None:
            return self.session.advise()
        return self.session.advise(
            deadline=Deadline.after_ms(
                self.deadline_ms, clock=self._deadline_clock
            )
        )

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    @property
    def events_seen(self) -> int:
        """Total events consumed."""
        return self.aggregator.events_seen

    @property
    def windows_seen(self) -> int:
        """Windows the aggregator completed."""
        return self.aggregator.windows_emitted

    @property
    def readvise_count(self) -> int:
        """Re-advise points so far (baseline excluded)."""
        return len(self.steps) - 1

    def describe(self) -> str:
        """One-line replay summary."""
        return (
            f"{self.events_seen} events, {self.windows_seen} windows "
            f"({self.windows_held} held), {self.readvise_count} re-advises, "
            f"current cost {self.steps[-1].cost:.2f}"
        )
