"""The paper's primary contribution: index-configuration selection.

* :mod:`~repro.core.configuration` — index configurations (Definition 4.1);
* :mod:`~repro.core.cost_matrix` — the ``Cost_Matrix`` and ``Min_Cost``
  procedures of Section 5;
* :mod:`repro.search` — the pluggable search strategies over the matrix
  (branch and bound, exhaustive, dynamic program, incremental dynamic
  program — all exact);
* :mod:`~repro.core.evaluation` — configuration cost evaluation, including
  the exact "coupled" evaluator extension;
* :mod:`~repro.core.advisor` — the one-call high-level API;
* :mod:`~repro.core.multipath` — the Section 6 multi-path extension,
  beam-backed: per-path candidates come from the k-best sweep
  :func:`repro.search.top_configurations` (exact enumeration is kept as the
  small-instance oracle), the joint search shares physical indexes
  across paths, and ``optimize_multipath(budget_pages=...)`` constrains
  the union of selected indexes to a storage budget;
* :mod:`~repro.core.budget` — single-path storage-budget selection.
"""

from repro.core.advisor import DEFAULT_STRATEGY, AdvisorReport, advise
from repro.core.budget import BudgetedResult, optimize_with_budget
from repro.core.configuration import IndexConfiguration, IndexedSubpath
from repro.core.cost_matrix import CostMatrix
from repro.core.multipath import (
    MultiPathResult,
    PathWorkload,
    SharedIndexKey,
    optimize_multipath,
)
from repro.core.planner import Plan, PlanStep, explain_query, explain_update

__all__ = [
    "AdvisorReport",
    "BudgetedResult",
    "CostMatrix",
    "DEFAULT_STRATEGY",
    "IndexConfiguration",
    "IndexedSubpath",
    "MultiPathResult",
    "PathWorkload",
    "Plan",
    "PlanStep",
    "SharedIndexKey",
    "advise",
    "explain_query",
    "explain_update",
    "optimize_multipath",
    "optimize_with_budget",
]
