"""Tests for the Cost_Matrix and Min_Cost procedures."""

import math
import struct

import pytest
from conftest import oracle_matrix
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost_matrix import TIE_RELATIVE_TOLERANCE, CostMatrix
from repro.errors import OptimizerError
from repro.organizations import CONFIGURABLE_ORGANIZATIONS, IndexOrganization

MX = IndexOrganization.MX
MIX = IndexOrganization.MIX
NIX = IndexOrganization.NIX
PX = IndexOrganization.PX
NONE = IndexOrganization.NONE


class TestFigure6Matrix:
    def test_row_count_formula(self, fig6):
        # n(n+1)/2 rows for n = 4.
        assert fig6.row_count() == 10
        assert len(fig6.rows()) == 10

    def test_entry_count_formula(self, fig6):
        # "the size of the matrix will be 3 to n(n+1)/2".
        assert fig6.entry_count() == 30

    def test_known_entries(self, fig6):
        # The legible Figure 6 rows.
        assert fig6.cost(1, 1, MX) == 3.0
        assert fig6.cost(1, 1, MIX) == 4.0
        assert fig6.cost(1, 1, NIX) == 6.0
        assert fig6.cost(2, 2, MX) == 4.0
        assert fig6.cost(3, 3, MX) == 2.0

    def test_row_minima_match_walkthrough(self, fig6):
        # The minima quoted in the Section 5 prose.
        expected = {
            (1, 1): 3.0,
            (1, 2): 6.0,
            (1, 3): 8.0,
            (1, 4): 9.0,
            (2, 2): 4.0,
            (2, 3): 5.0,
            (2, 4): 5.0,
            (3, 3): 2.0,
            (3, 4): 6.0,
            (4, 4): 4.0,
        }
        for (start, end), cost in expected.items():
            assert fig6.min_cost(start, end).cost == cost

    def test_min_cost_organizations(self, fig6):
        assert fig6.min_cost(1, 1).organization is MX
        assert fig6.min_cost(1, 4).organization is NIX
        assert fig6.min_cost(2, 4).organization is NIX
        assert fig6.min_cost(4, 4).organization is MX

    def test_bounds_checked(self, fig6):
        with pytest.raises(OptimizerError):
            fig6.cost(0, 1, MX)
        with pytest.raises(OptimizerError):
            fig6.cost(2, 5, MX)
        with pytest.raises(OptimizerError):
            fig6.min_cost(3, 2)

    def test_render_marks_minima(self, fig6):
        text = fig6.render()
        assert "*3.00*" in text
        assert "S[1,1]" in text


class TestComputedMatrix:
    def test_compute_covers_all_rows(self, fig7_stats, fig7_load):
        matrix = CostMatrix.compute(fig7_stats, fig7_load)
        assert matrix.length == 4
        for start, end in matrix.rows():
            for organization in CONFIGURABLE_ORGANIZATIONS:
                assert matrix.cost(start, end, organization) > 0

    def test_breakdowns_available_for_computed(self, fig7_stats, fig7_load):
        matrix = CostMatrix.compute(fig7_stats, fig7_load)
        breakdown = matrix.breakdown(1, 2, NIX)
        assert breakdown is not None
        assert breakdown.total == pytest.approx(matrix.cost(1, 2, NIX))

    def test_breakdown_missing_for_literal(self, fig6):
        assert fig6.breakdown(1, 1, MX) is None

    def test_breakdown_checks_bounds_and_organization(
        self, fig6, fig7_stats, fig7_load
    ):
        """Out-of-range rows and absent organizations raise as in cost();
        None only ever means a literal matrix without breakdowns."""
        matrix = CostMatrix.compute(fig7_stats, fig7_load)
        for literal_or_computed in (matrix, fig6):
            with pytest.raises(OptimizerError, match="out of range"):
                literal_or_computed.breakdown(0, 9, MX)
            with pytest.raises(OptimizerError, match="no entry"):
                literal_or_computed.breakdown(1, 1, PX)

    def test_alias_breakdowns_carry_their_cost_model(self, fig7_stats, fig7_load):
        """SIX and IIX columns report the MX and MIX that priced them,
        exactly like the scalar oracle."""
        organizations = (IndexOrganization.SIX, IndexOrganization.IIX, NIX)
        matrix = CostMatrix.compute(fig7_stats, fig7_load, organizations)
        oracle = oracle_matrix(fig7_stats, fig7_load, organizations)
        for start, end in matrix.rows():
            for organization in organizations:
                assert matrix.breakdown(start, end, organization) == (
                    oracle.breakdown(start, end, organization)
                )
        assert matrix.breakdown(1, 2, IndexOrganization.SIX).organization is MX
        assert matrix.breakdown(1, 2, IndexOrganization.IIX).organization is MIX

    def test_reads_return_python_floats(self, fig6, fig7_stats, fig7_load):
        matrix = CostMatrix.compute(fig7_stats, fig7_load)
        for any_matrix in (matrix, fig6):
            assert type(any_matrix.cost(1, 2, NIX)) is float
            assert type(any_matrix.min_cost(1, 2).cost) is float
        breakdown = matrix.breakdown(1, 2, NIX)
        for field in (
            "query", "insert", "delete", "cmd", "storage_pages",
            "cmd_per_deletion", "total",
        ):
            assert type(getattr(breakdown, field)) is float, field

    def test_include_noindex_adds_column(self, fig7_stats, fig7_load):
        matrix = CostMatrix.compute(fig7_stats, fig7_load, include_noindex=True)
        assert matrix.organizations == (MX, MIX, NIX, NONE)
        assert matrix.cost(1, 1, IndexOrganization.NONE) > 0

    def test_include_noindex_keeps_restricted_organizations(
        self, fig7_stats, fig7_load
    ):
        matrix = CostMatrix.compute(
            fig7_stats, fig7_load, organizations=(PX, IndexOrganization.NX),
            include_noindex=True,
        )
        assert matrix.organizations == (PX, IndexOrganization.NX, NONE)
        with_none = CostMatrix.compute(
            fig7_stats, fig7_load, organizations=(NONE, MX), include_noindex=True
        )
        assert with_none.organizations == (NONE, MX)

    def test_repeated_organization_rejected_before_pricing(
        self, fig7_stats, fig7_load, monkeypatch
    ):
        def price_rows(*_args, **_kwargs):
            raise AssertionError("a row was priced")

        monkeypatch.setattr(CostMatrix, "_compute_rows", price_rows)
        with pytest.raises(OptimizerError, match="organization MX is listed more"):
            CostMatrix.compute(fig7_stats, fig7_load, organizations=(MX, MX, NIX))

    def test_render_with_path(self, fig7_stats, fig7_load):
        matrix = CostMatrix.compute(fig7_stats, fig7_load)
        text = matrix.render(fig7_stats.path)
        assert "Person.owns.man" in text
        assert "Division.name" in text

    def test_missing_row_rejected(self):
        with pytest.raises(OptimizerError):
            CostMatrix(2, (MX,), {(1, 1): {MX: 1.0}, (2, 2): {MX: 1.0}})

    def test_missing_organization_rejected(self):
        entries = {
            (1, 1): {MX: 1.0},
            (1, 2): {MX: 1.0},
            (2, 2): {},
        }
        with pytest.raises(OptimizerError):
            CostMatrix(2, (MX,), entries)

    def test_repeated_organization_rejected(self):
        with pytest.raises(OptimizerError, match="organization NIX is listed more"):
            CostMatrix(1, (NIX, MX, NIX), {(1, 1): {MX: 1.0, NIX: 2.0}})

    def test_zero_length_rejected(self):
        with pytest.raises(OptimizerError):
            CostMatrix(0, (MX,), {})

    def test_from_values_rejects_mismatched_row_organizations(self):
        values = {
            (1, 1): {MX: 1.0, NIX: 2.0},
            (1, 2): {MX: 1.0, NIX: 2.0},
            (2, 2): {MX: 1.0, MIX: 2.0},  # MIX instead of NIX
        }
        with pytest.raises(OptimizerError, match=r"row \(2, 2\)"):
            CostMatrix.from_values(2, values)

    def test_from_values_rejects_missing_organization(self):
        values = {
            (1, 1): {MX: 1.0, NIX: 2.0},
            (1, 2): {MX: 1.0, NIX: 2.0},
            (2, 2): {MX: 1.0},
        }
        with pytest.raises(OptimizerError):
            CostMatrix.from_values(2, values)

    def test_from_values_rejects_empty(self):
        with pytest.raises(OptimizerError):
            CostMatrix.from_values(1, {})

    def test_row_index_matches_figure6_order(self, fig6):
        for expected, (start, end) in enumerate(fig6.rows()):
            assert fig6.row_index(start, end) == expected

    def test_rows_outside_triangle_rejected(self):
        values = {
            (1, 1): {MX: 1.0},
            (1, 2): {MX: 1.0},
            (2, 2): {MX: 1.0},
            (3, 3): {MX: 99.0},  # outside a length-2 matrix
        }
        with pytest.raises(OptimizerError, match="outside"):
            CostMatrix.from_values(2, values)

    def test_tie_resolves_to_earliest_organization(self):
        values = {(1, 1): {MX: -10.0, MIX: -10.0, NIX: -10.0}}
        matrix = CostMatrix.from_values(1, values)
        assert matrix.min_cost(1, 1).organization is MX

    def test_negative_costs_pick_true_minimum(self):
        values = {(1, 1): {MX: -9.99, MIX: -10.0}}
        matrix = CostMatrix.from_values(1, values)
        minimum = matrix.min_cost(1, 1)
        assert minimum.organization is MIX
        assert minimum.cost == -10.0

    def test_negative_near_tie_resolves_to_earliest(self):
        # A 5e-10 relative gap is numerical noise: earliest column wins
        # regardless of sign (the old relative formula flipped direction
        # for negative costs and picked the larger value).
        values = {(1, 1): {MX: -9.999999995, MIX: -10.0}}
        matrix = CostMatrix.from_values(1, values)
        assert matrix.min_cost(1, 1).organization is MX


def _scan_row_minimum(values: list[float], base: int, width: int) -> tuple[float, int]:
    """The scalar ``Min_Cost`` scan the vectorized row minima replaced.

    A later column only displaces the running minimum when it is strictly
    smaller beyond the tie tolerance; the symmetric absolute form keeps
    the comparison direction correct for costs of any sign, so exact and
    near ties resolve to the earliest organization in column order.
    """
    minimum_cost = values[base]
    minimum_org = 0
    for column in range(1, width):
        value = values[base + column]
        if minimum_cost == float("inf"):
            # The relative form is indeterminate against an infinite
            # running minimum; any finite value wins outright.
            take = value < minimum_cost
        else:
            take = minimum_cost - value > TIE_RELATIVE_TOLERANCE * max(
                abs(value), abs(minimum_cost)
            )
        if take:
            minimum_cost = value
            minimum_org = column
    return minimum_cost, minimum_org


def _scan_ranking(values: list[float]) -> list[int]:
    """Columns in iterated scalar ``Min_Cost`` order."""
    remaining = list(range(len(values)))
    ordered = []
    while remaining:
        candidates = [values[column] for column in remaining]
        _, position = _scan_row_minimum(candidates, 0, len(candidates))
        ordered.append(remaining.pop(position))
    return ordered


_SPECIAL = (
    0.0, -0.0, math.inf, -math.inf, 1.0, -1.0, 5e-324, -5e-324,
    2.2250738585072014e-308, 1e300, -1e300,
)
# Relative offsets straddling the 1e-9 tie tolerance on both sides.
_NEAR = (
    1 - 2e-9, 1 - 1.000001e-9, 1 - 0.999999e-9, 1 - 5e-10,
    1 + 5e-10, 1 + 0.999999e-9, 1 + 1.000001e-9, 1 + 2e-9,
)
_COLUMNS = (MX, MIX, NIX, PX, IndexOrganization.NX, NONE)


@st.composite
def literal_matrices(draw):
    """Literal matrices of 1–6 rows × 1–6 columns whose cells mix fresh
    values (negatives, ±0.0, ±inf, subnormals) with exact and near ties
    of earlier cells in the same row."""
    length = draw(st.integers(min_value=1, max_value=3))
    organizations = _COLUMNS[: draw(st.integers(min_value=1, max_value=6))]
    fresh = st.one_of(
        st.sampled_from(_SPECIAL),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    )
    values = {}
    for start in range(1, length + 1):
        for end in range(start, length + 1):
            cells: list[float] = []
            for _ in organizations:
                kind = draw(st.sampled_from(("fresh", "tie", "near")))
                if kind == "fresh" or not cells:
                    cells.append(draw(fresh))
                elif kind == "tie":
                    cells.append(draw(st.sampled_from(cells)))
                else:
                    cells.append(
                        draw(st.sampled_from(cells)) * draw(st.sampled_from(_NEAR))
                    )
            values[(start, end)] = dict(zip(organizations, cells))
    return length, values


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


class TestVectorizedRowMinima:
    @given(world=literal_matrices())
    @settings(max_examples=400, deadline=None)
    def test_minima_and_rankings_match_the_scalar_scan(self, world):
        length, values = world
        matrix = CostMatrix.from_values(length, values)
        organizations = matrix.organizations
        for (start, end), row in values.items():
            cells = [row[organization] for organization in organizations]
            cost, column = _scan_row_minimum(cells, 0, len(cells))
            minimum = matrix.min_cost(start, end)
            assert minimum.organization is organizations[column]
            assert _bits(minimum.cost) == _bits(cost)
            assert matrix.ranked_organizations(start, end) == tuple(
                organizations[column] for column in _scan_ranking(cells)
            )

    def test_infinite_rows(self):
        inf = math.inf
        values = {
            (1, 1): {MX: inf, MIX: inf, NIX: 3.0},
            (1, 2): {MX: inf, MIX: -inf, NIX: -inf},
            (2, 2): {MX: -inf, MIX: inf, NIX: 7.0},
        }
        matrix = CostMatrix.from_values(2, values)
        assert matrix.min_cost(1, 1).organization is NIX
        assert matrix.min_cost(1, 2).organization is MIX
        assert matrix.min_cost(2, 2).organization is MX
        assert matrix.ranked_organizations(1, 1) == (NIX, MX, MIX)
