"""Stateful what-if sessions: incremental at every pipeline layer.

The one-shot pipeline (``Cost_Matrix`` → ``Min_Cost`` → search) answers a
single question. An administrator — or an online advisor tracking a
drifting workload — asks thousands, each differing from the last by a
small delta. An :class:`AdvisorSession` owns the full pipeline state for
one path (statistics, workload, cost matrix, search tables) and threads
the *exact dirty-row set* of every perturbation through all of it:

* the matrix layer re-prices only the rows the delta can reach
  (:meth:`~repro.core.cost_matrix.CostMatrix.recompute`, with
  delete-frequency deltas reduced to O(1) per-row ``CMD`` patches);
* the search layer re-relaxes only the DP positions those rows can
  reach (``incremental_dynamic_program``'s
  :meth:`~repro.search.dynamic_program.IncrementalDynamicProgramStrategy.refine`);
* the multi-path layer regenerates k-best candidates only for paths
  whose sessions report dirty rows
  (:func:`~repro.core.multipath.optimize_multipath` with ``sessions=``,
  orchestrated by :class:`MultiPathSession`).

Every answer is bit-identical to rerunning the whole pipeline from
scratch on the current inputs — the Hypothesis property in
``tests/test_whatif_session.py`` pins ``(cost, configuration)`` equality
for arbitrary supported perturbation sequences under every registered
strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.cost_matrix import CostMatrix, RecomputeReport
from repro.core.multipath import (
    MultiPathResult,
    PathWorkload,
    build_fleet,
    optimize_multipath,
)
from repro.costmodel.params import PathStatistics
from repro.errors import DeadlineExceeded, OptimizerError
from repro.obs.recorder import resolve_recorder
from repro.organizations import CONFIGURABLE_ORGANIZATIONS, IndexOrganization
from repro.resilience.degradation import DegradationReport
from repro.resilience.degrade import degraded_search
from repro.search import SearchResult, get_strategy
from repro.whatif.perturbation import Perturbation, apply_perturbations
from repro.workload.load import LoadDistribution

#: The session default: the search layer that can consume dirty sets.
DEFAULT_SESSION_STRATEGY = "incremental_dynamic_program"


@dataclass(frozen=True)
class WhatIfStep:
    """The outcome of one perturbation step, for reports and tables.

    ``report`` is ``None`` for the baseline step (nothing was applied
    yet); ``configuration_changed`` compares against the previous step's
    selected configuration.
    """

    index: int
    description: str
    result: SearchResult
    report: RecomputeReport | None = None
    configuration_changed: bool = False

    @property
    def cost(self) -> float:
        """The selected configuration's processing cost after the step."""
        return self.result.cost


class AdvisorSession:
    """Incremental what-if advisor state for one path.

    Parameters mirror :func:`~repro.core.advisor.advise` where they
    overlap; ``strategy`` defaults to ``incremental_dynamic_program`` so
    repeated :meth:`advise` calls consume dirty-row sets instead of
    re-searching from scratch (any registered strategy works — those
    without a ``refine`` method are simply re-run against the
    incrementally updated matrix). ``workers`` applies to the initial
    matrix construction and to every recompute (dirty sets are small, so
    ``0``/serial is the right default).

    The session's observable guarantees:

    * :attr:`matrix`, :attr:`stats` and :attr:`load` always describe the
      inputs after every :meth:`apply` so far;
    * :meth:`advise` returns exactly what a fresh
      ``get_strategy(strategy).search(CostMatrix.compute(stats, load))``
      would return on the current inputs — bit-identical cost and
      configuration;
    * :attr:`version` increments whenever an :meth:`apply` actually
      touched matrix rows, which is what the multi-path candidate cache
      keys on.
    """

    def __init__(
        self,
        stats: PathStatistics,
        load: LoadDistribution,
        *,
        organizations: tuple[IndexOrganization, ...] = CONFIGURABLE_ORGANIZATIONS,
        include_noindex: bool = False,
        range_selectivity: float | None = None,
        strategy: str = DEFAULT_SESSION_STRATEGY,
        workers: int | None = 0,
        degradation: DegradationReport | None = None,
        recorder=None,
    ) -> None:
        # Resolve the strategy first: a bad name must fail before the
        # expensive matrix construction (advise's convention).
        self._searcher = get_strategy(strategy)
        self.strategy = strategy
        self.stats = stats
        self.load = load
        self._workers = workers
        #: Every fallback this session (and its matrix updates) takes is
        #: recorded here; pass a shared report to aggregate across
        #: sessions (ContinuousAdvisor does).
        self.degradation = (
            degradation if degradation is not None else DegradationReport()
        )
        #: Tracing spans and metrics for every session operation; a
        #: :class:`~repro.obs.Recorder` shared across sessions profiles
        #: them into one timeline (ContinuousAdvisor does).
        self.recorder = resolve_recorder(recorder)
        self.matrix = CostMatrix.compute(
            stats,
            load,
            organizations=organizations,
            include_noindex=include_noindex,
            range_selectivity=range_selectivity,
            workers=workers,
            degradation=self.degradation,
            recorder=self.recorder,
        )
        #: Monotone counter of applies that touched matrix rows.
        self.version = 0
        #: Per-descriptor candidate cache managed by
        #: :func:`~repro.core.multipath.optimize_multipath` (sessions=).
        self.candidate_cache: dict = {}
        self.applied_steps = 0
        #: Number of :meth:`apply_many` batches folded so far.
        self.batched_steps = 0
        self._pending: set[tuple[int, int]] = set()
        self._pending_full = False
        self._result: SearchResult | None = None

    # ------------------------------------------------------------------
    # perturbation
    # ------------------------------------------------------------------
    def apply(
        self,
        stats: PathStatistics | None = None,
        load: LoadDistribution | None = None,
    ) -> RecomputeReport:
        """Replace the session inputs and incrementally update the matrix.

        ``stats``/``load`` follow :meth:`CostMatrix.recompute` semantics
        (``None`` keeps the current object; both describe the same path).
        Returns the :class:`~repro.core.cost_matrix.RecomputeReport` of
        the underlying matrix update, so callers can assert how much work
        the step actually did.
        """
        if stats is None and load is None:
            raise OptimizerError(
                "apply requires new statistics, a new load, or both"
            )
        with self.recorder.span("session.apply"):
            self.matrix = self.matrix.recompute(
                stats=stats,
                load=load,
                workers=self._workers,
                degradation=self.degradation,
                recorder=self.recorder,
            )
        self.recorder.counter("whatif.applied_steps").add()
        report = self.matrix.recompute_report
        if stats is not None:
            self.stats = stats
        if load is not None:
            self.load = load
        if report.mode == "full":
            self._pending_full = True
            self._pending.clear()
            self.version += 1
        elif report.dirty_count:
            self._pending.update(report.recomputed_rows)
            self._pending.update(report.patched_rows)
            self.version += 1
        self.applied_steps += 1
        return report

    def perturb(self, perturbation: Perturbation) -> RecomputeReport:
        """Apply one declarative :class:`Perturbation` to the session."""
        new_stats, new_load = perturbation.apply(self.stats, self.load)
        return self.apply(
            stats=None if new_stats is self.stats else new_stats,
            load=None if new_load is self.load else new_load,
        )

    def apply_many(self, perturbations: list[Perturbation]) -> RecomputeReport:
        """Apply a whole perturbation batch with **one** matrix recompute.

        The perturbations are folded into a single ``(stats, load)``
        delta first (:func:`~repro.whatif.perturbation.apply_perturbations`:
        one input construction per side, however long the batch), so the
        recompute's dirty analysis sees the *union* of their row reaches
        and prices every touched row exactly once — a bursty drift
        stream pays one array assembly and one search refinement per
        batch instead of one per event. The resulting session state (and
        therefore every subsequent :meth:`advise`) is bit-identical to
        applying the same perturbations one by one.
        """
        items = list(perturbations)
        if not items:
            raise OptimizerError(
                "apply_many requires at least one perturbation"
            )
        with self.recorder.span("session.apply_many", batch=len(items)):
            stats, load = apply_perturbations(items, self.stats, self.load)
            self.batched_steps += 1
            self.recorder.counter("whatif.batched_steps").add()
            return self.apply(
                stats=None if stats is self.stats else stats,
                load=None if load is self.load else load,
            )

    # ------------------------------------------------------------------
    # answering
    # ------------------------------------------------------------------
    def advise(
        self, *, keep_trace: bool = False, deadline=None
    ) -> SearchResult:
        """The optimal configuration for the current inputs.

        Incremental at the search layer: with no pending dirty rows the
        last result is returned as-is; with a dirty set and a strategy
        that supports ``refine`` only the reachable DP positions are
        re-relaxed; otherwise the strategy re-runs against the (already
        incrementally updated) matrix.

        ``deadline`` (a :class:`~repro.resilience.Deadline`) bounds the
        answer's latency: the exact rung runs under cooperative deadline
        checks, and on expiry the session degrades along the explicit
        ladder — the last-known-good configuration re-priced against the
        current matrix, or, with nothing known good yet, the dynamic
        program run past the deadline (see
        :mod:`repro.resilience.degrade`). A degraded answer
        carries ``extras["rung"]``/``extras["degraded"]``, is recorded in
        :attr:`degradation`, and does **not** replace the session's exact
        state: the dirty set stays pending, so the next unbounded
        :meth:`advise` recovers exactness. Without a deadline the
        behaviour (and the bit-identical-to-fresh guarantee) is
        unchanged.
        """
        search_options = {
            "keep_trace": keep_trace,
            "deadline": deadline,
            "recorder": self.recorder,
        }
        with self.recorder.span(
            "session.advise", dirty=len(self._pending)
        ):
            if (
                self._result is not None
                and not self._pending
                and not self._pending_full
            ):
                if keep_trace and not self._result.trace:
                    # The cached answer was produced without a trace;
                    # honor the request with a full (trace-keeping)
                    # search.
                    try:
                        self._result = self._searcher.search(
                            self.matrix, **search_options
                        )
                    except DeadlineExceeded as error:
                        self.degradation.record(
                            "session",
                            "trace_search_abandoned",
                            "deadline_expired",
                            strategy=self.strategy,
                            message=str(error),
                        )
                else:
                    self.recorder.counter("whatif.advise_cache_hits").add()
                return self._result
            try:
                if (
                    self._result is not None
                    and not self._pending_full
                    and hasattr(self._searcher, "refine")
                ):
                    result = self._searcher.refine(
                        self.matrix, frozenset(self._pending), **search_options
                    )
                else:
                    result = self._searcher.search(
                        self.matrix, **search_options
                    )
            except DeadlineExceeded as error:
                self.degradation.record(
                    "session",
                    "exact_abandoned",
                    "deadline_expired",
                    strategy=self.strategy,
                    message=str(error),
                )
                return degraded_search(
                    self.matrix,
                    last_known_good=self._result,
                    degradation=self.degradation,
                    keep_trace=keep_trace,
                    layer="session",
                    recorder=self.recorder,
                )
            self._pending.clear()
            self._pending_full = False
            self._result = result
            return result

    def run(self, perturbations: list[Perturbation]) -> list[WhatIfStep]:
        """Drive a perturbation sequence, one :class:`WhatIfStep` each.

        Step 0 is the baseline (current inputs, nothing applied); steps
        ``1..n`` each apply one perturbation and re-advise.
        """
        baseline = self.advise()
        steps = [WhatIfStep(index=0, description="baseline", result=baseline)]
        previous = baseline.configuration
        for index, perturbation in enumerate(perturbations, start=1):
            report = self.perturb(perturbation)
            result = self.advise()
            steps.append(
                WhatIfStep(
                    index=index,
                    description=perturbation.describe(),
                    result=result,
                    report=report,
                    configuration_changed=result.configuration != previous,
                )
            )
            previous = result.configuration
        return steps


class MultiPathSession:
    """Joint what-if state over several paths.

    Owns one :class:`AdvisorSession` per path and answers
    :meth:`optimize` through
    :func:`~repro.core.multipath.optimize_multipath`'s ``sessions=``
    seam: per-path k-best candidate sets are cached on the sessions and
    regenerated only for paths whose dirty sets changed, and when *no*
    session changed since the last call with the same options the cached
    :class:`~repro.core.multipath.MultiPathResult` is returned without
    re-running joint selection at all.
    """

    def __init__(
        self, sessions: list[AdvisorSession], *, recorder=None
    ) -> None:
        if not sessions:
            raise OptimizerError("at least one session is required")
        self.sessions = list(sessions)
        #: Tracing spans and metrics for the joint layer; per-path work
        #: is recorded by each session's own recorder (pass the same
        #: instance everywhere for one merged timeline).
        self.recorder = resolve_recorder(recorder)
        self._last: tuple[tuple, tuple[int, ...], MultiPathResult] | None = None

    @classmethod
    def from_workloads(
        cls, workloads: list[PathWorkload], **session_options
    ) -> "MultiPathSession":
        """Build one session per :class:`PathWorkload`.

        A ``recorder`` among the options is shared: every path session
        and the joint layer record into the same timeline. Sessions are
        built through :func:`~repro.core.multipath.build_fleet`, so a
        suffix path's matrix adopts its longest path's statistics-only
        kernel units.
        """
        recorder = session_options.get("recorder")
        return cls(
            build_fleet(
                workloads,
                lambda workload: AdvisorSession(
                    workload.stats, workload.load, **session_options
                ),
                range_selectivity=session_options.get("range_selectivity"),
                recorder=resolve_recorder(recorder),
            ),
            recorder=recorder,
        )

    def apply(
        self,
        index: int,
        stats: PathStatistics | None = None,
        load: LoadDistribution | None = None,
    ) -> RecomputeReport:
        """Perturb the inputs of path ``index``."""
        return self.sessions[index].apply(stats=stats, load=load)

    def perturb(self, index: int, perturbation: Perturbation) -> RecomputeReport:
        """Apply one declarative perturbation to path ``index``."""
        return self.sessions[index].perturb(perturbation)

    def apply_many(
        self, perturbations: dict[int, list[Perturbation]]
    ) -> dict[int, RecomputeReport]:
        """Batched perturbations per path, one recompute per touched path.

        ``perturbations`` maps path indexes to perturbation batches; each
        batch goes through the path session's
        :meth:`AdvisorSession.apply_many` (one dirty-set-union recompute
        per path), and untouched paths do no work at all.
        """
        reports: dict[int, RecomputeReport] = {}
        for index, batch in perturbations.items():
            if not 0 <= index < len(self.sessions):
                raise OptimizerError(
                    f"path index {index} out of range for "
                    f"{len(self.sessions)} sessions"
                )
            reports[index] = self.sessions[index].apply_many(batch)
        return reports

    def optimize(self, **options) -> MultiPathResult:
        """Joint selection over the current inputs of every path.

        Keyword options are forwarded to
        :func:`~repro.core.multipath.optimize_multipath` (``beam_width``,
        ``budget_pages``, ``restarts``, ...), and the answer is the one
        that function gives on the sessions' current inputs: untouched
        paths reuse their cached candidate sets, and an identical question
        (same options, no session version moved) returns the cached
        :class:`MultiPathResult` outright.
        """
        # A deadline-bounded call may answer degraded; such results are
        # neither served from nor stored into the identical-question
        # cache, so an unbounded follow-up always recomputes exactly.
        bounded = options.get("deadline") is not None
        key = tuple(sorted(options.items()))
        versions = tuple(session.version for session in self.sessions)
        if not bounded and self._last is not None:
            last_key, last_versions, last_result = self._last
            if last_key == key and last_versions == versions:
                self.recorder.counter("whatif.optimize_cache_hits").add()
                return last_result
        result = optimize_multipath(
            sessions=self.sessions,
            recorder=self.recorder,
            **options,
        )
        if not bounded:
            self._last = (key, versions, result)
        return result
