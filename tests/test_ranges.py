"""Tests for the range-predicate extension (analytic + operational)."""

import pytest

from repro import kernel
from repro.core.configuration import IndexConfiguration
from repro.core.cost_matrix import CostMatrix
from repro.costmodel.btree_shape import build_shape
from repro.costmodel.ranges import range_scan_cost
from repro.costmodel.subpath import build_model, subpath_processing_cost
from repro.errors import CostModelError
from repro.indexes.manager import ConfigurationIndexSet
from repro.model.examples import populate_vehicle_database
from repro.organizations import IndexOrganization
from repro.storage.sizes import SizeModel

MX = IndexOrganization.MX
MIX = IndexOrganization.MIX
NIX = IndexOrganization.NIX
PX = IndexOrganization.PX
NX = IndexOrganization.NX
NONE = IndexOrganization.NONE

SIZES = SizeModel()


class TestRangeScanPrimitive:
    def test_zero_selectivity(self):
        shape = build_shape(10_000, 100, 16, SIZES)
        assert range_scan_cost(shape, 0.0) == 0.0

    def test_full_scan_touches_all_leaves(self):
        shape = build_shape(10_000, 100, 16, SIZES)
        cost = range_scan_cost(shape, 1.0)
        assert cost >= shape.leaf_pages

    def test_point_range_close_to_crl(self):
        from repro.costmodel.primitives import crl

        shape = build_shape(10_000, 100, 16, SIZES)
        tiny = range_scan_cost(shape, 1e-6)
        assert tiny == pytest.approx(crl(shape), abs=1.0)

    def test_monotone_in_selectivity(self):
        shape = build_shape(10_000, 100, 16, SIZES)
        costs = [range_scan_cost(shape, s) for s in (0.01, 0.1, 0.5, 1.0)]
        assert costs == sorted(costs)

    def test_contiguous_cheaper_than_equality_probes(self):
        from repro.costmodel.primitives import crt

        shape = build_shape(10_000, 100, 16, SIZES)
        selectivity = 0.2
        records = selectivity * shape.record_count
        assert range_scan_cost(shape, selectivity) < crt(shape, records)

    def test_oversized_records_paid_per_record(self):
        shape = build_shape(100, 10_000, 16, SIZES)
        cost = range_scan_cost(shape, 0.5)
        assert cost >= 0.5 * shape.record_count * shape.record_pages

    def test_invalid_selectivity_rejected(self):
        shape = build_shape(100, 100, 16, SIZES)
        with pytest.raises(CostModelError):
            range_scan_cost(shape, 1.5)
        with pytest.raises(CostModelError):
            range_scan_cost(shape, -0.1)


class TestAnalyticRangeCosts:
    @pytest.mark.parametrize("organization", [MX, MIX, NIX, PX, NX])
    def test_range_cost_monotone_in_selectivity(self, fig7_stats, organization):
        model = build_model(fig7_stats, 1, 4, organization)
        costs = [
            model.range_query_cost(1, "Person", s) for s in (0.01, 0.1, 0.5)
        ]
        assert costs == sorted(costs)

    def test_nix_range_walk_beats_mx_probe_chain(self, fig7_stats):
        """Where NIX records stay narrow (the Comp.divs.name subpath), the
        contiguous primary walk beats MX's per-value oid probing."""
        nix = build_model(fig7_stats, 3, 4, NIX)
        mx = build_model(fig7_stats, 3, 4, MX)
        assert nix.range_query_cost(3, "Company", 0.3) < mx.range_query_cost(
            3, "Company", 0.3
        )

    def test_wide_records_make_nix_ranges_expensive(self, fig7_stats):
        """On the full path the NIX records are page-spanning: a wide
        range pays per-record page costs and loses to MX — the flip side
        of the same coin."""
        nix = build_model(fig7_stats, 1, 4, NIX)
        mx = build_model(fig7_stats, 1, 4, MX)
        assert nix.range_query_cost(1, "Person", 0.3) > mx.range_query_cost(
            1, "Person", 0.3
        )

    def test_subpath_cost_with_ranges(self, fig7_stats, fig7_load):
        equality = subpath_processing_cost(fig7_stats, fig7_load, 1, 4, NIX)
        ranged = subpath_processing_cost(
            fig7_stats, fig7_load, 1, 4, NIX, range_selectivity=0.2
        )
        assert ranged.query > equality.query
        assert ranged.insert == pytest.approx(equality.insert)
        assert ranged.delete == pytest.approx(equality.delete)

    def test_invalid_selectivity_rejected(self, fig7_stats, fig7_load):
        with pytest.raises(CostModelError):
            subpath_processing_cost(
                fig7_stats, fig7_load, 1, 4, NIX, range_selectivity=2.0
            )

    @pytest.mark.parametrize("selectivity", [1.5, -0.2, float("nan")])
    def test_matrix_and_lowering_reject_invalid_selectivity(
        self, fig7_stats, fig7_load, selectivity
    ):
        for build in (CostMatrix.compute, kernel.lower):
            with pytest.raises(
                CostModelError, match=r"selectivity out of \[0,1\]"
            ):
                build(fig7_stats, fig7_load, range_selectivity=selectivity)

    def test_matrix_with_ranges(self, fig7_stats, fig7_load):
        matrix = CostMatrix.compute(
            fig7_stats, fig7_load, range_selectivity=0.25
        )
        equality = CostMatrix.compute(fig7_stats, fig7_load)
        for start, end in matrix.rows():
            for organization in matrix.organizations:
                assert matrix.cost(start, end, organization) >= equality.cost(
                    start, end, organization
                ) * 0.99

    def test_advise_with_ranges(self, fig7_stats, fig7_load):
        from repro.core.advisor import advise

        report = advise(fig7_stats, fig7_load, range_selectivity=0.3)
        assert report.optimal.cost > 0


RANGE_CONFIGS = [
    IndexConfiguration.whole_path(4, NIX),
    IndexConfiguration.whole_path(4, MX),
    IndexConfiguration.whole_path(4, MIX),
    IndexConfiguration.whole_path(4, PX),
    IndexConfiguration.whole_path(4, NX),
    IndexConfiguration.whole_path(4, NONE),
    IndexConfiguration.of((1, 2, NIX), (3, 4, MX)),
    IndexConfiguration.of((1, 1, MX), (2, 4, PX)),
]


class TestOperationalRangeQueries:
    @pytest.mark.parametrize("config", RANGE_CONFIGS, ids=lambda c: c.render())
    def test_all_organizations_agree(self, vehicle_schema, pexa, config):
        database = populate_vehicle_database(vehicle_schema)
        indexes = ConfigurationIndexSet(database, pexa, config)
        # All division names from 'Daf-cabs' to 'Fiat-movings' (sorted
        # string order) — covers Daf and Fiat divisions.
        result = indexes.range_query("Daf-cabs", "Fiat-movings", "Person")
        names = {database.get(oid).values["name"] for oid in result}
        assert names == {"Piet", "Sonia", "Henk"}

    def test_range_narrower_than_full(self, vehicle_schema, pexa):
        database = populate_vehicle_database(vehicle_schema)
        indexes = ConfigurationIndexSet(
            database, pexa, IndexConfiguration.whole_path(4, NIX)
        )
        narrow = indexes.range_query("Daf-cabs", "Daf-logistics", "Person")
        wide = indexes.range_query("A", "Z", "Person")
        assert narrow <= wide
        assert len(wide) == 4  # every person reaches some division name

    def test_range_on_intermediate_class(self, vehicle_schema, pexa):
        database = populate_vehicle_database(vehicle_schema)
        indexes = ConfigurationIndexSet(
            database, pexa, IndexConfiguration.whole_path(4, MIX)
        )
        companies = indexes.range_query("Fiat-design", "Fiat-movings", "Company")
        assert len(companies) == 1

    def test_measured_range_query(self, vehicle_schema, pexa):
        from repro.indexes.executor import PathQueryExecutor

        database = populate_vehicle_database(vehicle_schema)
        indexes = ConfigurationIndexSet(
            database, pexa, IndexConfiguration.whole_path(4, NIX)
        )
        executor = PathQueryExecutor(indexes)
        measured = executor.range_query("A", "Z", "Person")
        assert measured.stats.total >= 1
        assert len(measured.oids) == 4
