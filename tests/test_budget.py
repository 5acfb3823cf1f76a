"""Tests for storage-budget-constrained selection."""

import pytest

from repro.core.budget import optimize_with_budget
from repro.core.cost_matrix import CostMatrix
from repro.search import get_strategy
from repro.errors import OptimizerError
from repro.organizations import EXTENDED_ORGANIZATIONS, IndexOrganization


@pytest.fixture(scope="module")
def fig7_matrix():
    from repro.paper import figure7_load, figure7_statistics

    return CostMatrix.compute(figure7_statistics(), figure7_load())


@pytest.fixture(scope="module")
def fig7_matrix_with_none():
    from repro.paper import figure7_load, figure7_statistics

    return CostMatrix.compute(
        figure7_statistics(), figure7_load(), organizations=EXTENDED_ORGANIZATIONS
    )


class TestBudgetedSelection:
    def test_generous_budget_matches_unconstrained(self, fig7_matrix):
        unconstrained = get_strategy("branch_and_bound").search(fig7_matrix)
        budgeted = optimize_with_budget(fig7_matrix, budget_pages=10**9)
        assert budgeted.cost == pytest.approx(unconstrained.cost)
        assert budgeted.cost_of_constraint == pytest.approx(0.0)

    def test_tight_budget_costs_more(self, fig7_matrix):
        generous = optimize_with_budget(fig7_matrix, budget_pages=10**9)
        tight = optimize_with_budget(
            fig7_matrix, budget_pages=generous.unconstrained_storage * 0.5
        )
        assert tight.storage_pages <= generous.unconstrained_storage * 0.5
        assert tight.cost >= generous.cost

    def test_budget_respected(self, fig7_matrix):
        budget = 2_000.0
        result = optimize_with_budget(fig7_matrix, budget_pages=budget)
        assert result.storage_pages <= budget

    def test_monotone_in_budget(self, fig7_matrix):
        budgets = [2_000.0, 4_000.0, 8_000.0, 10**9]
        costs = [
            optimize_with_budget(fig7_matrix, budget_pages=b).cost
            for b in budgets
        ]
        assert costs == sorted(costs, reverse=True)

    def test_impossible_budget_raises(self, fig7_matrix):
        with pytest.raises(OptimizerError):
            optimize_with_budget(fig7_matrix, budget_pages=1.0)

    def test_none_organization_always_fits(self, fig7_matrix_with_none):
        result = optimize_with_budget(fig7_matrix_with_none, budget_pages=0.0)
        assert result.storage_pages == 0.0
        used = {
            assignment.organization
            for assignment in result.configuration.assignments
        }
        assert used == {IndexOrganization.NONE}

    def test_negative_budget_rejected(self, fig7_matrix):
        with pytest.raises(OptimizerError):
            optimize_with_budget(fig7_matrix, budget_pages=-1.0)

    def test_nan_budget_rejected(self, fig7_matrix):
        with pytest.raises(
            OptimizerError,
            match="storage budget must be a non-negative number of pages, got nan",
        ):
            optimize_with_budget(fig7_matrix, budget_pages=float("nan"))

    def test_literal_matrix_rejected(self, fig6):
        with pytest.raises(OptimizerError):
            optimize_with_budget(fig6, budget_pages=100.0)

    def test_render(self, fig7_matrix):
        result = optimize_with_budget(fig7_matrix, budget_pages=10**9)
        text = result.render()
        assert "budget pages" in text

    def test_evaluated_counts_full_product(self, fig7_matrix):
        result = optimize_with_budget(fig7_matrix, budget_pages=10**9)
        # Partitions of a length-4 path with 3 organizations per block:
        # sum over partitions of 3^m = 3^1 + 3*3^2 + 3*3^3 + 3^4 = 192.
        assert result.evaluated == 192
