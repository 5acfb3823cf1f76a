"""Tests for the subpath processing cost (Definition 4.2)."""

import pytest

from repro.costmodel.subpath import build_model, subpath_processing_cost
from repro.errors import CostModelError
from repro.organizations import IndexOrganization
from repro.workload.load import LoadDistribution, LoadTriplet


class TestComponents:
    def test_components_sum_to_total(self, fig7_stats, fig7_load):
        cost = subpath_processing_cost(
            fig7_stats, fig7_load, 1, 2, IndexOrganization.NIX
        )
        assert cost.total == pytest.approx(
            cost.query + cost.insert + cost.delete + cost.cmd
        )

    def test_all_components_nonnegative(self, fig7_stats, fig7_load):
        for organization in (
            IndexOrganization.MX,
            IndexOrganization.MIX,
            IndexOrganization.NIX,
        ):
            for start in range(1, 5):
                for end in range(start, 5):
                    cost = subpath_processing_cost(
                        fig7_stats, fig7_load, start, end, organization
                    )
                    assert cost.query >= 0
                    assert cost.insert >= 0
                    assert cost.delete >= 0
                    assert cost.cmd >= 0

    def test_cmd_zero_for_path_suffix(self, fig7_stats, fig7_load):
        # A subpath ending at A_n has no following class.
        cost = subpath_processing_cost(
            fig7_stats, fig7_load, 3, 4, IndexOrganization.MX
        )
        assert cost.cmd == 0.0

    def test_cmd_positive_when_following_class_deletes(self, fig7_stats, fig7_load):
        # Subpath ending at man (position 2): Company deletions (0.1) follow.
        cost = subpath_processing_cost(
            fig7_stats, fig7_load, 1, 2, IndexOrganization.NIX
        )
        assert cost.cmd > 0

    def test_organization_recorded(self, fig7_stats, fig7_load):
        cost = subpath_processing_cost(
            fig7_stats, fig7_load, 2, 3, IndexOrganization.MIX
        )
        assert cost.organization is IndexOrganization.MIX
        assert (cost.start, cost.end) == (2, 3)


class TestWorkloadLinearity:
    def test_cost_scales_linearly_with_load(self, fig7_stats, fig7_load):
        base = subpath_processing_cost(
            fig7_stats, fig7_load, 1, 4, IndexOrganization.MIX
        )
        doubled = subpath_processing_cost(
            fig7_stats, fig7_load.scaled(2.0), 1, 4, IndexOrganization.MIX
        )
        assert doubled.total == pytest.approx(2 * base.total)

    def test_zero_load_zero_cost(self, fig7_stats, pexa):
        empty = LoadDistribution(pexa, {})
        cost = subpath_processing_cost(fig7_stats, empty, 1, 4, IndexOrganization.NIX)
        assert cost.total == 0.0

    def test_query_only_load_has_no_maintenance(self, fig7_stats, pexa):
        load = LoadDistribution.uniform(pexa, query=1.0)
        cost = subpath_processing_cost(fig7_stats, load, 1, 4, IndexOrganization.MX)
        assert cost.query > 0
        assert cost.insert == 0.0
        assert cost.delete == 0.0
        assert cost.cmd == 0.0

    def test_update_only_load_has_no_query_cost(self, fig7_stats, pexa):
        load = LoadDistribution(
            pexa,
            {name: LoadTriplet(insert=0.1, delete=0.1) for name in pexa.scope},
        )
        cost = subpath_processing_cost(fig7_stats, load, 1, 4, IndexOrganization.MX)
        assert cost.query == 0.0
        assert cost.insert > 0
        assert cost.delete > 0


class TestProbeSemantics:
    def test_upstream_queries_charge_downstream_subpaths(self, fig7_stats, pexa):
        """A query on Person must pay on the Division subpath too."""
        load = LoadDistribution(pexa, {"Person": LoadTriplet(query=1.0)})
        cost = subpath_processing_cost(fig7_stats, load, 4, 4, IndexOrganization.MX)
        assert cost.query > 0

    def test_downstream_queries_free_for_upstream_subpaths(self, fig7_stats, pexa):
        """A query on Division costs nothing on the Person.owns subpath."""
        load = LoadDistribution(pexa, {"Division": LoadTriplet(query=1.0)})
        cost = subpath_processing_cost(fig7_stats, load, 1, 1, IndexOrganization.MX)
        assert cost.query == 0.0

    def test_non_final_subpaths_pay_fanin_probes(self, fig7_stats, pexa):
        """The oid fan-in makes early subpaths pay more per query."""
        load = LoadDistribution(pexa, {"Person": LoadTriplet(query=1.0)})
        early = subpath_processing_cost(
            fig7_stats, load, 1, 1, IndexOrganization.MX
        )
        # 56 probe keys at Person.owns vs 1 at a suffix subpath.
        single_probe_model = build_model(fig7_stats, 1, 1, IndexOrganization.MX)
        assert early.query > single_probe_model.query_cost(1, "Person", 1.0)

    def test_mismatched_path_rejected(self, fig7_stats, pe):
        load = LoadDistribution.uniform(pe)
        with pytest.raises(CostModelError):
            subpath_processing_cost(fig7_stats, load, 1, 2, IndexOrganization.MX)
