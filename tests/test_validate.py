"""Tests for the measured-vs-analytic validation harness."""

import json
import os
import pathlib
import random
import subprocess
import sys
import textwrap

import pytest

from repro.backend import (
    MaterializedConfiguration,
    ValidationRow,
    default_scenarios,
    measure_scenarios,
    render_validation,
    validate_configuration,
)
from repro.backend.validate import sample_operations
from repro.core.configuration import IndexConfiguration
from repro.organizations import IndexOrganization
from tests.conftest import make_small_synth

MX = IndexOrganization.MX
MIX = IndexOrganization.MIX
NIX = IndexOrganization.NIX

ROOT = pathlib.Path(__file__).resolve().parents[1]


class TestValidationRows:
    def test_ratio(self):
        row = ValidationRow("query", "A", analytic=2.0, measured=3.0, samples=5)
        assert row.ratio == pytest.approx(1.5)

    def test_zero_analytic_zero_measured(self):
        row = ValidationRow("query", "A", analytic=0.0, measured=0.0, samples=5)
        assert row.ratio == 1.0

    def test_zero_analytic_nonzero_measured(self):
        row = ValidationRow("query", "A", analytic=0.0, measured=2.0, samples=5)
        assert row.ratio == float("inf")

    def test_render(self):
        text = render_validation(
            [ValidationRow("query", "A", 2.0, 2.2, 5)]
        )
        assert "query" in text and "1.10" in text


@pytest.mark.parametrize(
    "configuration",
    [
        IndexConfiguration.whole_path(3, NIX),
        IndexConfiguration.whole_path(3, MIX),
        IndexConfiguration.of((1, 1, MX), (2, 3, NIX)),
    ],
    ids=lambda c: c.render(),
)
class TestQueryValidationAccuracy:
    def test_query_predictions_within_factor_two(self, configuration):
        _schema, path, database, _specs = make_small_synth(seed=5)
        rows = validate_configuration(
            database, path, configuration, samples=8, seed=11, include_updates=False
        )
        assert rows
        for row in rows:
            assert row.operation == "query"
            assert row.measured > 0
            assert row.analytic > 0
            assert 0.4 <= row.ratio <= 2.5, f"{row.class_name}: {row.ratio}"


class TestUpdateValidation:
    def test_update_rows_produced_and_sane(self):
        _schema, path, database, _specs = make_small_synth(seed=9)
        rows = validate_configuration(
            database,
            path,
            IndexConfiguration.whole_path(3, NIX),
            samples=4,
            seed=2,
            include_updates=True,
        )
        operations = {row.operation for row in rows}
        assert operations == {"query", "insert", "delete"}
        for row in rows:
            if row.operation in ("insert", "delete"):
                assert 0.2 <= row.ratio <= 5.0, (
                    f"{row.operation}/{row.class_name}: {row.ratio}"
                )

    def test_empty_database_rejected(self):
        from repro.errors import ReproError
        from repro.model.objects import OODatabase
        from repro.synth import LevelSpec, linear_path_schema

        schema, path = linear_path_schema([LevelSpec("X"), LevelSpec("Y")])
        database = OODatabase(schema)
        with pytest.raises(ReproError):
            validate_configuration(
                database, path, IndexConfiguration.whole_path(2, NIX)
            )


class TestSharedSampler:
    """Validation and calibration take their rows from one sampler."""

    def test_validation_rows_equal_calibration_rows(self):
        """On every default scenario, validating the scenario's own
        configuration with its seed measures what calibration measures."""
        compared = 0
        for scenario in default_scenarios():
            database, path, stats, configuration = scenario.build()
            validated = validate_configuration(
                database, path, configuration, samples=4,
                seed=scenario.seed, stats=stats,
            )
            calibrated = measure_scenarios(
                [scenario], query_samples=4, update_samples=4
            )
            assert [
                (r.operation, r.class_name, r.analytic, r.measured, r.samples)
                for r in validated
            ] == [
                (m.operation, m.class_name, m.analytic, m.measured, m.samples)
                for m in calibrated
            ], scenario.name
            compared += len(validated)
        assert compared == 216

    def test_queries_come_first_and_ignore_update_samples(self):
        """Query rows are drawn before any update, so ``update_samples``
        changes only what follows them; ``0`` samples queries only."""
        rows = {}
        for update_samples in (0, 3):
            _schema, path, database, _specs = make_small_synth(seed=4)
            backend = MaterializedConfiguration(
                database, path, IndexConfiguration.of((1, 1, MX), (2, 3, NIX))
            )
            rows[update_samples] = sample_operations(
                backend, path, random.Random(8), 5, update_samples
            )
        queries = rows[0]
        assert queries and {row[0] for row in queries} == {"query"}
        assert rows[3][: len(queries)] == queries
        assert {row[0] for row in rows[3][len(queries):]} == {"delete", "insert"}
        assert all(row[4] == 3 for row in rows[3] if row[0] == "delete")


class TestStorageValidation:
    def test_nix_storage_within_factor_two(self):
        from repro.backend import render_storage, validate_storage

        _schema, path, database, _specs = make_small_synth(seed=5)
        rows = validate_storage(
            database, path, IndexConfiguration.whole_path(3, NIX)
        )
        assert len(rows) == 1
        row = rows[0]
        assert row.organization == "NIX"
        assert row.measured > 0
        assert row.analytic > 0
        assert 0.4 <= row.ratio <= 2.5, f"{row.label}: {row.ratio}"
        assert row.label in render_storage(rows)

    def test_every_organization_measured(self):
        from repro.backend import validate_storage

        _schema, path, database, _specs = make_small_synth(seed=7)
        rows = validate_storage(
            database, path, IndexConfiguration.of((1, 1, MX), (2, 3, NIX))
        )
        assert [row.organization for row in rows] == ["MX", "NIX"]
        for row in rows:
            assert row.measured > 0
            assert 0.3 <= row.ratio <= 3.0, f"{row.label}: {row.ratio}"

    def test_shared_nix_primary_same_pages(self):
        """Configurations sharing a subpath assignment materialize the
        shared part to the same page count — the premise behind comparing
        partitions that differ only elsewhere (shared NIX primaries)."""
        from repro.backend import validate_storage

        _schema, path, database, _specs = make_small_synth(seed=3)
        first = validate_storage(
            database, path, IndexConfiguration.of((1, 1, MX), (2, 3, NIX))
        )
        _schema2, path2, database2, _specs2 = make_small_synth(seed=3)
        second = validate_storage(
            database2, path2, IndexConfiguration.of((1, 1, MIX), (2, 3, NIX))
        )
        shared_first = [r for r in first if r.label == "S[2,3]:NIX"]
        shared_second = [r for r in second if r.label == "S[2,3]:NIX"]
        assert shared_first and shared_second
        assert shared_first[0].measured == shared_second[0].measured
        assert shared_first[0].analytic == shared_second[0].analytic


class TestHashSeedIndependence:
    """Seeded measurements must not depend on ``PYTHONHASHSEED``.

    OIDs hash through their class-name string, which Python salts per
    process, so an index that walked a ``set`` of attribute values would
    insert them in a different order — and grow a differently shaped
    B+-tree — from run to run.
    """

    SCRIPT = textwrap.dedent(
        """
        import dataclasses, json, sys
        sys.path.insert(0, sys.argv[1])
        from validation_demo import SPECS, build
        from repro import IndexConfiguration, IndexOrganization
        from repro.synth import populate_path_database
        from repro.backend import validate_configuration

        schema, path = build()
        database = populate_path_database(schema, path, SPECS, seed=3)
        configuration = IndexConfiguration.of(
            (1, 1, IndexOrganization.MX), (2, 3, IndexOrganization.NIX)
        )
        rows = validate_configuration(
            database, path, configuration, samples=10, seed=5,
            include_updates=False,
        )
        print(json.dumps([dataclasses.astuple(row) for row in rows]))
        """
    )

    def rows_under(self, hash_seed: str) -> list:
        python_path = os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
        )
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": python_path}
        completed = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(ROOT / "examples")],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        return json.loads(completed.stdout)

    def test_demo_rows_equal_under_two_hash_seeds(self):
        first = self.rows_under("0")
        assert first
        assert self.rows_under("3") == first
