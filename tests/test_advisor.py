"""Tests for the advisor pipeline, including the Example 5.1 shape."""

import pytest

from repro.core.advisor import advise
from repro.organizations import EXTENDED_ORGANIZATIONS, IndexOrganization
from repro.paper import EX51_EXPECTED

MX = IndexOrganization.MX
MIX = IndexOrganization.MIX
NIX = IndexOrganization.NIX


@pytest.fixture(scope="module")
def ex51_report():
    from repro.paper import figure7_load, figure7_statistics

    return advise(figure7_statistics(), figure7_load(), keep_trace=True)


class TestExample51Shape:
    """The paper's headline experiment, shape-checked.

    Absolute page-access numbers depend on physical constants the paper
    does not state; the asserted facts are the ones the paper's
    conclusions rest on.
    """

    def test_optimal_partition_matches_paper(self, ex51_report):
        # {(Per.owns.man, NIX), (Comp.divs.name, MX)}
        assert ex51_report.optimal.configuration.partition() == EX51_EXPECTED[
            "optimal_partition"
        ]

    def test_optimal_organizations_match_paper(self, ex51_report):
        organizations = tuple(
            assignment.organization
            for assignment in ex51_report.optimal.configuration.assignments
        )
        assert organizations == EX51_EXPECTED["optimal_organizations"]

    def test_nix_wins_prefix_subpath_row(self, ex51_report):
        assert ex51_report.matrix.min_cost(1, 2).organization is NIX

    def test_mx_wins_tail_subpath_row(self, ex51_report):
        assert ex51_report.matrix.min_cost(3, 4).organization is MX

    def test_splitting_beats_whole_path_nix_by_large_factor(self, ex51_report):
        whole_nix = ex51_report.single_index_costs[NIX]
        factor = whole_nix / ex51_report.optimal.cost
        # Paper: 2.7x. Same direction, comparable magnitude.
        assert factor > 2.0

    def test_splitting_beats_best_single_index(self, ex51_report):
        assert ex51_report.improvement_factor > 1.0

    def test_branch_and_bound_prunes(self, ex51_report):
        assert ex51_report.optimal.evaluated < EX51_EXPECTED["total_configurations"]
        assert ex51_report.optimal.pruned > 0

    def test_exhaustive_agrees(self, ex51_report):
        assert ex51_report.exhaustive is not None
        assert ex51_report.exhaustive.cost == pytest.approx(ex51_report.optimal.cost)
        assert ex51_report.exhaustive.evaluated == 8

    def test_dynprog_agrees(self, ex51_report):
        assert ex51_report.dynprog is not None
        assert ex51_report.dynprog.cost == pytest.approx(ex51_report.optimal.cost)

    def test_render_includes_matrix_and_result(self, ex51_report):
        text = ex51_report.render()
        assert "Person.owns.man" in text
        assert "optimal:" in text
        assert "improvement" in text


class TestAdvisorOptions:
    def test_no_baselines(self, fig7_stats, fig7_load):
        report = advise(fig7_stats, fig7_load, run_baselines=False)
        assert report.exhaustive is None
        assert report.dynprog is None
        assert report.single_index_costs == {}

    def test_no_baselines_single_index_accessors_raise_clearly(
        self, fig7_stats, fig7_load
    ):
        from repro.errors import OptimizerError

        report = advise(fig7_stats, fig7_load, run_baselines=False)
        with pytest.raises(OptimizerError, match="single-index baselines"):
            report.best_single_index
        with pytest.raises(OptimizerError, match="single-index baselines"):
            report.improvement_factor
        # The report still renders without the baseline section.
        assert "optimal:" in report.render()

    def test_noindex_extension(self, fig7_stats, fig7_load):
        report = advise(fig7_stats, fig7_load, include_noindex=True)
        assert IndexOrganization.NONE in report.matrix.organizations
        # The optimum can only improve with more options.
        base = advise(fig7_stats, fig7_load)
        assert report.optimal.cost <= base.optimal.cost + 1e-9

    def test_restricted_organizations(self, fig7_stats, fig7_load):
        report = advise(fig7_stats, fig7_load, organizations=(MX,))
        assert report.matrix.organizations == (MX,)
        for assignment in report.optimal.configuration.assignments:
            assert assignment.organization is MX

    def test_noindex_keeps_restricted_organizations(
        self, fig7_stats, fig7_load
    ):
        """``include_noindex`` adds NONE to the caller's list instead of
        replacing it: PX stays priced, MIX and NIX stay out."""
        PX = IndexOrganization.PX
        NONE = IndexOrganization.NONE
        report = advise(
            fig7_stats, fig7_load, organizations=(MX, PX), include_noindex=True
        )
        assert report.matrix.organizations == (MX, PX, NONE)
        assert report.matrix.cost(1, 4, PX) > 0
        used = {
            assignment.organization
            for assignment in report.optimal.configuration.assignments
        }
        assert used <= {MX, PX, NONE}

    def test_update_heavy_workload_prefers_noindex_somewhere(
        self, fig7_stats, fig7_load
    ):
        """With overwhelming update load, unindexed subpaths win."""
        from repro.workload.load import LoadDistribution, LoadTriplet

        path = fig7_stats.path
        heavy = LoadDistribution(
            path,
            {
                name: LoadTriplet(query=0.001, insert=5.0, delete=5.0)
                for name in path.scope
            },
        )
        report = advise(
            fig7_stats, heavy, organizations=EXTENDED_ORGANIZATIONS
        )
        used = {
            assignment.organization
            for assignment in report.optimal.configuration.assignments
        }
        assert IndexOrganization.NONE in used
