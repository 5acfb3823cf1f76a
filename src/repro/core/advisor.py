"""The high-level advisor API: one call from statistics to configuration.

:func:`advise` runs the complete pipeline of Section 5 — ``Cost_Matrix``,
``Min_Cost``, then a pluggable search strategy from :mod:`repro.search`
(``Opt_Ind_Con`` branch and bound by default) — plus the baselines the
paper compares against (single-index whole-path configurations,
exhaustive enumeration, the DP optimum) and packages everything in an
:class:`AdvisorReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.cost_matrix import CostMatrix
from repro.costmodel.params import PathStatistics
from repro.errors import DeadlineExceeded, OptimizerError
from repro.obs.recorder import resolve_recorder
from repro.organizations import CONFIGURABLE_ORGANIZATIONS, IndexOrganization
from repro.resilience.degrade import degraded_search
from repro.search import SearchResult, get_strategy
from repro.workload.load import LoadDistribution

#: The default search strategy: the paper's ``Opt_Ind_Con``.
DEFAULT_STRATEGY = "branch_and_bound"

#: Longest path for which the exhaustive baseline is run alongside the
#: chosen strategy: 2^(n-1) partitions stay under ~64k. Beyond it only
#: the O(n²) dynamic program serves as the exact baseline.
EXHAUSTIVE_BASELINE_MAX_LENGTH = 17


@dataclass
class AdvisorReport:
    """Everything the advisor computed for one path and workload.

    The search outcomes (``optimal``, ``exhaustive``, ``dynprog``) are
    unified :class:`~repro.search.SearchResult` objects; strategy-specific
    payloads such as the DP's ``rows_inspected`` live in their ``extras``
    (before the ``repro.search`` extraction these fields were per-searcher
    dataclasses). ``exhaustive`` is only populated for paths up to
    :data:`EXHAUSTIVE_BASELINE_MAX_LENGTH`.
    """

    stats: PathStatistics
    load: LoadDistribution
    matrix: CostMatrix
    optimal: SearchResult
    exhaustive: SearchResult | None = None
    dynprog: SearchResult | None = None
    single_index_costs: dict[IndexOrganization, float] = field(default_factory=dict)

    @property
    def best_single_index(self) -> tuple[IndexOrganization, float]:
        """The cheapest whole-path single-index configuration.

        Raises :class:`~repro.errors.OptimizerError` when no single-index
        baselines were computed (``advise(..., run_baselines=False)``).
        """
        if not self.single_index_costs:
            raise OptimizerError(
                "no single-index baselines were computed; call "
                "advise(..., run_baselines=True) to populate them"
            )
        organization = min(self.single_index_costs, key=self.single_index_costs.get)
        return organization, self.single_index_costs[organization]

    @property
    def improvement_factor(self) -> float:
        """Best single-index cost divided by the optimal configuration cost.

        The paper's headline: splitting ``P_exa`` "decreases the processing
        cost of a path by a factor 2.7" against the whole-path NIX.
        Raises :class:`~repro.errors.OptimizerError` when no single-index
        baselines were computed (``advise(..., run_baselines=False)``).
        """
        best = self.best_single_index[1]
        if self.optimal.cost <= 0:
            return float("inf")
        return best / self.optimal.cost

    def render(self) -> str:
        """Multi-line, human-readable report."""
        path = self.stats.path
        lines = [
            f"path: {path}",
            "",
            self.matrix.render(path),
            "",
            f"optimal: {self.optimal.render(path)}",
        ]
        if self.optimal.strategy and self.optimal.strategy != DEFAULT_STRATEGY:
            lines.append(f"strategy: {self.optimal.strategy}")
        breakdown_lines = []
        for assignment in self.optimal.configuration.assignments:
            breakdown = self.matrix.breakdown(
                assignment.start, assignment.end, assignment.organization
            )
            if breakdown is None:
                continue
            breakdown_lines.append(
                f"  {assignment.render(path)}: query={breakdown.query:.2f} "
                f"insert={breakdown.insert:.2f} delete={breakdown.delete:.2f} "
                f"cmd={breakdown.cmd:.2f}"
            )
        if breakdown_lines:
            lines.append("cost breakdown per subpath:")
            lines.extend(breakdown_lines)
        if self.single_index_costs:
            lines.append("single-index baselines:")
            for organization, cost in sorted(
                self.single_index_costs.items(), key=lambda item: item[1]
            ):
                lines.append(f"  {{({path}, {organization})}}: {cost:.2f}")
            lines.append(
                f"improvement over best single index: {self.improvement_factor:.2f}x"
            )
        if self.exhaustive is not None:
            lines.append(
                f"exhaustive: cost {self.exhaustive.cost:.2f} over "
                f"{self.exhaustive.evaluated} configurations"
            )
        if self.dynprog is not None:
            lines.append(
                f"dynamic program: cost {self.dynprog.cost:.2f} "
                f"({self.dynprog.extras['rows_inspected']} row lookups)"
            )
        return "\n".join(lines)


def advise(
    stats: PathStatistics,
    load: LoadDistribution,
    organizations: tuple[IndexOrganization, ...] = CONFIGURABLE_ORGANIZATIONS,
    include_noindex: bool = False,
    run_baselines: bool = True,
    keep_trace: bool = False,
    range_selectivity: float | None = None,
    strategy: str = DEFAULT_STRATEGY,
    workers: int | None = None,
    deadline=None,
    degradation=None,
    recorder=None,
) -> AdvisorReport:
    """Select the optimal index configuration for a path.

    Parameters
    ----------
    stats:
        Path statistics (the Figure 7 inputs).
    load:
        The workload distribution over the path's scope.
    organizations:
        Candidate organizations per subpath (default: MX, MIX, NIX).
    include_noindex:
        Also consider leaving subpaths unindexed (Section 6 extension).
    run_baselines:
        Compute exhaustive enumeration (paths up to
        :data:`EXHAUSTIVE_BASELINE_MAX_LENGTH` only — beyond that the
        2^(n-1) sweep is infeasible), the DP optimum and the
        single-index whole-path baselines alongside.
    keep_trace:
        Record the search strategy's decision trace.
    range_selectivity:
        Treat the workload's queries as range predicates covering this
        fraction of the distinct ending values.
    strategy:
        Registered search strategy name (see
        :func:`repro.search.available_strategies`); defaults to the
        paper's branch and bound. Every strategy returns the optimum;
        ``"dynamic_program"`` finds it in O(n²) row lookups on any path
        length.
    workers:
        Worker processes for the ``Cost_Matrix`` construction (see
        :meth:`~repro.core.cost_matrix.CostMatrix.compute`): ``None``
        auto-parallelizes long paths, ``0`` forces serial, ``N`` uses
        exactly ``N`` processes. The search itself is always in-process.
    deadline:
        An optional :class:`~repro.resilience.Deadline` bounding the
        search. On expiry the chosen strategy is abandoned and the
        degradation ladder answers instead (the dynamic program, run to
        completion past the deadline; see
        :func:`repro.resilience.degraded_search`) — the report's
        ``optimal`` then carries ``extras["degraded"]`` and the rung
        that produced it. Baselines are skipped once the deadline has
        expired. The matrix construction itself is never bounded: cost
        rows are the ground truth every rung prices against.
    degradation:
        An optional
        :class:`~repro.resilience.DegradationReport` collecting a
        structured record of every fallback taken (deadline rungs,
        worker-pool serial fallbacks). When omitted,
        deadline fallbacks are still applied — just not recorded.
    recorder:
        An optional :class:`~repro.obs.Recorder` collecting tracing
        spans and metrics for the whole pipeline (matrix build, kernel
        lowering/fold, search, baselines). ``None`` (the default) means
        no recording and effectively zero overhead.
    """
    # Resolve the strategy first: a bad name must fail before the
    # expensive cost-model run, not after.
    searcher = get_strategy(strategy)
    recorder = resolve_recorder(recorder)
    with recorder.span("advise", strategy=strategy, length=stats.length):
        recorder.counter("advise.calls").add()
        matrix = CostMatrix.compute(
            stats,
            load,
            organizations=organizations,
            include_noindex=include_noindex,
            range_selectivity=range_selectivity,
            workers=workers,
            degradation=degradation,
            recorder=recorder,
        )
        try:
            optimal = searcher.search(
                matrix, keep_trace=keep_trace, deadline=deadline,
                recorder=recorder,
            )
        except DeadlineExceeded as error:
            if degradation is not None:
                degradation.record(
                    "advise",
                    "exact_abandoned",
                    "deadline_expired",
                    strategy=strategy,
                    message=str(error),
                )
            optimal = degraded_search(
                matrix,
                degradation=degradation,
                keep_trace=keep_trace,
                layer="advise",
                recorder=recorder,
            )
        report = AdvisorReport(
            stats=stats, load=load, matrix=matrix, optimal=optimal
        )
        if run_baselines and deadline is not None and deadline.expired:
            # The budget is gone: answering beat completeness, and the
            # skipped baselines must not pass silently.
            if degradation is not None:
                degradation.record(
                    "advise", "baselines_skipped", "deadline_expired"
                )
            run_baselines = False
        if run_baselines:
            with recorder.span("advise.baselines", length=stats.length):
                # A baseline that *is* the chosen strategy was already
                # computed.
                if strategy == "exhaustive":
                    report.exhaustive = optimal
                elif stats.length <= EXHAUSTIVE_BASELINE_MAX_LENGTH:
                    report.exhaustive = get_strategy("exhaustive").search(
                        matrix, recorder=recorder
                    )
                # Both DP registrations compute the identical exact optimum.
                report.dynprog = (
                    optimal
                    if strategy
                    in ("dynamic_program", "incremental_dynamic_program")
                    else get_strategy("dynamic_program").search(
                        matrix, recorder=recorder
                    )
                )
                report.single_index_costs = {
                    organization: matrix.cost(1, stats.length, organization)
                    for organization in matrix.organizations
                }
    return report
