"""Configuration search strategies over a cost matrix.

The Section 5 pipeline separates cost evaluation (``Cost_Matrix`` +
``Min_Cost``, in :mod:`repro.core.cost_matrix`) from the search over the
``2^(n-1)`` recombinations. This package holds the search half:

* :mod:`~repro.search.base` — the :class:`SearchStrategy` protocol, the
  unified :class:`SearchResult`, and the string-keyed strategy registry
  (``get_strategy(name, **options)``; register new searchers with
  ``@register_strategy("name")`` without touching the pipeline);
* :mod:`~repro.search.partitions` — shared partition/split enumeration,
  the search-space counting helpers (``partition_count``,
  ``configuration_count``), and :func:`~repro.search.partitions.top_configurations`,
  the exact k-best sweep that feeds per-path candidates to the
  multi-path selector (:mod:`repro.core.multipath`) and keeps joint
  selection over many long paths out of the ``2^(n-1)`` regime;
* :mod:`~repro.search.branch_and_bound` — the paper's ``Opt_Ind_Con``;
* :mod:`~repro.search.exhaustive` — the full-enumeration oracle;
* :mod:`~repro.search.dynamic_program` — the O(n²) exact optimum, plus
  its what-if variant ``incremental_dynamic_program`` whose kept
  ``best``/``choice`` tables are refined against the exact dirty-row set
  of a :meth:`~repro.core.cost_matrix.CostMatrix.recompute`
  (:class:`~repro.search.dynamic_program.IncrementalDynamicProgramStrategy`,
  driven by :class:`repro.whatif.AdvisorSession`).

Every registered strategy is exact: the objective is additive over
subpaths (Proposition 4.2), so they all return the same optimal cost and
differ only in the work they do to find it.

Quickstart::

    from repro.search import get_strategy, top_configurations

    result = get_strategy("dynamic_program").search(matrix)
    candidates = top_configurations(matrix, count=16,
                                    per_row_organizations=2)
"""

from repro.search.base import (
    SearchResult,
    SearchStrategy,
    available_strategies,
    get_strategy,
    register_strategy,
)
from repro.search.branch_and_bound import BranchAndBoundStrategy
from repro.search.dynamic_program import (
    DynamicProgramStrategy,
    IncrementalDynamicProgramStrategy,
)
from repro.search.exhaustive import ExhaustiveStrategy
from repro.search.partitions import (
    blocks_from_mask,
    configuration_count,
    enumerate_first_pieces,
    enumerate_partitions,
    partition_count,
    top_configurations,
    validate_partition,
)

__all__ = [
    "BranchAndBoundStrategy",
    "DynamicProgramStrategy",
    "ExhaustiveStrategy",
    "IncrementalDynamicProgramStrategy",
    "SearchResult",
    "SearchStrategy",
    "available_strategies",
    "blocks_from_mask",
    "configuration_count",
    "enumerate_first_pieces",
    "enumerate_partitions",
    "get_strategy",
    "partition_count",
    "register_strategy",
    "top_configurations",
    "validate_partition",
]
