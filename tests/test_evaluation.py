"""Tests for configuration evaluation (additive and coupled)."""

import pytest
from conftest import make_nix_heavy_world
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.configuration import IndexConfiguration
from repro.core.cost_matrix import CostMatrix
from repro.core.evaluation import (
    configuration_cost,
    coupled_configuration_cost,
    per_class_analytic_costs,
    per_part_analytic_costs,
)
from repro.organizations import ALL_ORGANIZATIONS, IndexOrganization

MX = IndexOrganization.MX
MIX = IndexOrganization.MIX
NIX = IndexOrganization.NIX


class TestAdditiveEvaluation:
    def test_sum_of_matrix_entries(self, fig6):
        config = IndexConfiguration.of((1, 2, MIX), (3, 4, NIX))
        assert configuration_cost(fig6, config) == 6.0 + 6.0

    def test_whole_path(self, fig6):
        config = IndexConfiguration.whole_path(4, NIX)
        assert configuration_cost(fig6, config) == 9.0


class TestCoupledEvaluation:
    def test_components_nonnegative_and_total(self, fig7_stats, fig7_load):
        config = IndexConfiguration.of((1, 2, NIX), (3, 4, MX))
        cost = coupled_configuration_cost(fig7_stats, fig7_load, config)
        assert cost.query >= 0
        assert cost.insert >= 0
        assert cost.delete >= 0
        assert cost.cmd >= 0
        assert cost.total == pytest.approx(
            cost.query + cost.insert + cost.delete + cost.cmd
        )

    def test_coupled_close_to_additive_for_whole_path(self, fig7_stats, fig7_load):
        """With a single subpath the two evaluations coincide up to the
        hierarchy-root aggregation of upstream queries."""
        config = IndexConfiguration.whole_path(4, NIX)
        matrix = CostMatrix.compute(fig7_stats, fig7_load)
        additive = configuration_cost(matrix, config)
        coupled = coupled_configuration_cost(fig7_stats, fig7_load, config)
        assert coupled.total == pytest.approx(additive, rel=0.35)

    def test_coupled_ranks_split_better_than_whole_nix(self, fig7_stats, fig7_load):
        """The paper's headline holds under the exact evaluation too."""
        split = coupled_configuration_cost(
            fig7_stats,
            fig7_load,
            IndexConfiguration.of((1, 2, NIX), (3, 4, MX)),
        )
        whole = coupled_configuration_cost(
            fig7_stats, fig7_load, IndexConfiguration.whole_path(4, NIX)
        )
        assert split.total < whole.total

    def test_maintenance_identical_between_evaluations(self, fig7_stats, fig7_load):
        """Maintenance decomposes exactly; only query costs differ."""
        config = IndexConfiguration.of((1, 1, MX), (2, 4, NIX))
        matrix = CostMatrix.compute(fig7_stats, fig7_load)
        coupled = coupled_configuration_cost(fig7_stats, fig7_load, config)
        additive_maintenance = 0.0
        for part in config.assignments:
            breakdown = matrix.breakdown(part.start, part.end, part.organization)
            assert breakdown is not None
            additive_maintenance += breakdown.insert + breakdown.delete + breakdown.cmd
        assert coupled.insert + coupled.delete + coupled.cmd == pytest.approx(
            additive_maintenance
        )


class TestPerClassCosts:
    def test_covers_every_scope_class(self, fig7_stats):
        config = IndexConfiguration.of((1, 2, NIX), (3, 4, MX))
        costs = per_class_analytic_costs(fig7_stats, config)
        expected_keys = {
            (position, member)
            for position in range(1, 5)
            for member in fig7_stats.members(position)
        }
        assert set(costs) == expected_keys

    def test_each_entry_has_three_operations(self, fig7_stats):
        config = IndexConfiguration.whole_path(4, MIX)
        costs = per_class_analytic_costs(fig7_stats, config)
        for entry in costs.values():
            assert set(entry) == {"query", "insert", "delete"}
            assert all(value >= 0 for value in entry.values())

    def test_subpath_start_delete_includes_preceding_cmd(self, fig7_stats):
        split = IndexConfiguration.of((1, 2, NIX), (3, 4, MX))
        whole_tail = IndexConfiguration.of((1, 4, NIX),)
        split_costs = per_class_analytic_costs(fig7_stats, split)
        # Company starts the second subpath: deleting it pays the NIX CMD
        # on Person.owns.man.
        from repro.costmodel.subpath import build_model

        nix_model = build_model(fig7_stats, 1, 2, NIX)
        mx_model = build_model(fig7_stats, 3, 4, MX)
        expected = mx_model.delete_cost(3, "Company") + nix_model.cmd_cost()
        assert split_costs[(3, "Company")]["delete"] == pytest.approx(expected)

    def test_query_cost_decreases_downstream(self, fig7_stats):
        config = IndexConfiguration.of((1, 2, NIX), (3, 4, MX))
        costs = per_class_analytic_costs(fig7_stats, config)
        assert costs[(1, "Person")]["query"] > costs[(4, "Division")]["query"]


class TestPerPartCosts:
    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        length=st.integers(min_value=1, max_value=10),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_parts_sum_to_the_per_class_costs(self, data, length, seed):
        """Each per-part list sums to the coupled per-class cost: inserts
        and deletes bit for bit, queries up to rounding (the per-class
        cost adds the later parts right to left, the list left to
        right)."""
        stats, _load = make_nix_heavy_world(length, seed)
        cuts = data.draw(
            st.lists(st.booleans(), min_size=length - 1, max_size=length - 1)
        )
        boundaries = [0, *(i + 1 for i, cut in enumerate(cuts) if cut), length]
        configuration = IndexConfiguration.of(
            *(
                (start + 1, end, data.draw(st.sampled_from(ALL_ORGANIZATIONS)))
                for start, end in zip(boundaries, boundaries[1:])
            )
        )
        costs = per_class_analytic_costs(stats, configuration)
        split = per_part_analytic_costs(stats, configuration)
        assert split.keys() == costs.keys()
        for key, entry in costs.items():
            for operation, expected in entry.items():
                shares = split[key][operation]
                assert len(shares) == len(configuration.assignments)
                if operation == "query":
                    assert sum(shares) == pytest.approx(expected, rel=1e-12)
                else:
                    assert sum(shares) == expected
