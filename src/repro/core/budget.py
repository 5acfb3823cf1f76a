"""Storage-budget-constrained configuration selection.

A practical extension of the paper's optimizer: real physical designs
operate under a storage budget, and the cheapest configuration may not
fit it (a NIX primary plus auxiliary index can dwarf a multi-index). The
constrained optimizer finds the configuration with minimal processing
cost among those whose total index storage stays within a page budget.

Because the storage constraint couples the per-subpath organization
choices (a row minimum may be unaffordable while its runner-up fits), the
search enumerates partitions *and* per-block organizations exactly —
feasible throughout the paper's regime ("in practice a path has rarely a
length greater than 7"). For budgets spanning *several* paths — where the
shared physical indexes must be stored once — and for long paths beyond
the exhaustive regime, use
:func:`repro.core.multipath.optimize_multipath` with ``budget_pages=...``,
which reuses the same per-subpath storage estimates through its beam
candidate generator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.core.configuration import IndexConfiguration, IndexedSubpath
from repro.core.cost_matrix import CostMatrix
from repro.errors import OptimizerError
from repro.search.partitions import enumerate_partitions


@dataclass
class BudgetedResult:
    """Outcome of the storage-constrained selection."""

    configuration: IndexConfiguration
    cost: float
    storage_pages: float
    budget_pages: float
    evaluated: int
    #: The unconstrained optimum for comparison.
    unconstrained_cost: float
    unconstrained_storage: float

    @property
    def cost_of_constraint(self) -> float:
        """Extra processing cost paid to fit the budget."""
        return self.cost - self.unconstrained_cost

    def render(self, path=None) -> str:
        """One-line summary."""
        return (
            f"{self.configuration.render(path)} costs {self.cost:.2f} using "
            f"{self.storage_pages:.0f} of {self.budget_pages:.0f} budget pages "
            f"(+{self.cost_of_constraint:.2f} vs unconstrained)"
        )


def optimize_with_budget(
    matrix: CostMatrix, budget_pages: float
) -> BudgetedResult:
    """Cheapest configuration whose total index storage fits the budget.

    Raises :class:`OptimizerError` when no configuration fits (even the
    smallest-storage assignment exceeds the budget); include the ``NONE``
    organization in the matrix to make a zero-storage fallback available.
    """
    # NaN fails every `storage <= budget` test, so reject it before the
    # enumeration rather than after it.
    if not budget_pages >= 0:
        raise OptimizerError(
            f"storage budget must be a non-negative number of pages, got "
            f"{budget_pages}"
        )
    pages = matrix._storage_matrix()
    best_cost = float("inf")
    best_parts: tuple[IndexedSubpath, ...] | None = None
    best_storage = 0.0
    unconstrained_cost = float("inf")
    unconstrained_storage = 0.0
    evaluated = 0
    for blocks in enumerate_partitions(matrix.length):
        options = []
        for start, end in blocks:
            options.append(
                [
                    (
                        IndexedSubpath(start, end, organization),
                        matrix.cost(start, end, organization),
                        pages.cost(start, end, organization),
                    )
                    for organization in matrix.organizations
                ]
            )
        for assignment in itertools.product(*options):
            evaluated += 1
            cost = sum(entry[1] for entry in assignment)
            storage = sum(entry[2] for entry in assignment)
            if cost < unconstrained_cost:
                unconstrained_cost = cost
                unconstrained_storage = storage
            if storage <= budget_pages and cost < best_cost:
                best_cost = cost
                best_storage = storage
                best_parts = tuple(entry[0] for entry in assignment)
    if best_parts is None:
        raise OptimizerError(
            f"no configuration fits within {budget_pages} pages; "
            "consider allowing the NONE organization"
        )
    return BudgetedResult(
        configuration=IndexConfiguration(best_parts),
        cost=best_cost,
        storage_pages=best_storage,
        budget_pages=budget_pages,
        evaluated=evaluated,
        unconstrained_cost=unconstrained_cost,
        unconstrained_storage=unconstrained_storage,
    )
