"""Tests for JSON spec serialization and the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.io import (
    load_spec,
    schema_from_dict,
    schema_to_dict,
    spec_from_dict,
    spec_to_dict,
)
from repro.organizations import IndexOrganization
from repro.paper import figure7_load, figure7_statistics


@pytest.fixture()
def fig7_spec_dict():
    return spec_to_dict(figure7_statistics(), figure7_load())


class TestSchemaRoundTrip:
    def test_round_trip_preserves_structure(self, vehicle_schema):
        data = schema_to_dict(vehicle_schema)
        rebuilt = schema_from_dict(data)
        assert set(rebuilt.class_names()) == set(vehicle_schema.class_names())
        assert rebuilt.direct_subclasses("Vehicle") == ["Bus", "Truck"]
        owns = rebuilt.resolve_attribute("Person", "owns")
        assert owns.multi_valued and owns.domain == "Vehicle"

    def test_atomic_domains_round_trip(self, vehicle_schema):
        rebuilt = schema_from_dict(schema_to_dict(vehicle_schema))
        age = rebuilt.resolve_attribute("Person", "age")
        assert age.is_atomic and str(age.domain) == "integer"

    def test_malformed_document_rejected(self):
        with pytest.raises(ReproError):
            schema_from_dict({"nope": []})


class TestSpecRoundTrip:
    def test_round_trip_statistics(self, fig7_spec_dict):
        spec = spec_from_dict(fig7_spec_dict)
        assert spec.stats.n(1, "Person") == 200_000
        assert spec.stats.nin(3, "Company") == 4

    def test_round_trip_workload(self, fig7_spec_dict):
        spec = spec_from_dict(fig7_spec_dict)
        assert spec.load.triplet("Person").query == pytest.approx(0.3)
        assert spec.load.triplet("Division").insert == pytest.approx(0.2)

    def test_round_trip_advises_identically(self, fig7_spec_dict):
        from repro.core.advisor import advise

        spec = spec_from_dict(fig7_spec_dict)
        original = advise(figure7_statistics(), figure7_load())
        rebuilt = advise(spec.stats, spec.load)
        assert rebuilt.optimal.cost == pytest.approx(original.optimal.cost)
        assert (
            rebuilt.optimal.configuration.partition()
            == original.optimal.configuration.partition()
        )

    def test_options_parsed(self, fig7_spec_dict):
        fig7_spec_dict["options"]["organizations"] = ["MX", "NIX"]
        fig7_spec_dict["options"]["include_noindex"] = True
        fig7_spec_dict["options"]["range_selectivity"] = 0.2
        spec = spec_from_dict(fig7_spec_dict)
        assert spec.organizations == (
            IndexOrganization.MX,
            IndexOrganization.NIX,
        )
        assert spec.include_noindex is True
        assert spec.range_selectivity == pytest.approx(0.2)

    def test_unknown_organization_rejected(self, fig7_spec_dict):
        fig7_spec_dict["options"]["organizations"] = ["BOGUS"]
        with pytest.raises(ReproError):
            spec_from_dict(fig7_spec_dict)

    def test_missing_sections_rejected(self, fig7_spec_dict):
        del fig7_spec_dict["statistics"]
        with pytest.raises(ReproError):
            spec_from_dict(fig7_spec_dict)

    def test_load_spec_from_file(self, fig7_spec_dict, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(fig7_spec_dict))
        spec = load_spec(str(path))
        assert spec.stats.length == 4

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ReproError):
            load_spec(str(path))


class TestCLI:
    def test_example_emits_valid_spec(self, capsys):
        assert main(["example"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["path"] == "Person.owns.man.divisions.name"
        spec_from_dict(document)  # must parse back

    def test_advise_text_output(self, capsys, fig7_spec_dict, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(fig7_spec_dict))
        assert main(["advise", str(path)]) == 0
        out = capsys.readouterr().out
        assert "optimal:" in out
        assert "Person.owns.man" in out

    def test_advise_json_output(self, capsys, fig7_spec_dict, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(fig7_spec_dict))
        assert main(["advise", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["optimal"]["configuration"][0]["organization"] == "NIX"
        assert payload["optimal"]["pruned"] >= 1

    def test_advise_workers_flag(self, capsys, fig7_spec_dict, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(fig7_spec_dict))
        assert main(["advise", str(path), "--workers", "2", "--json"]) == 0
        parallel = json.loads(capsys.readouterr().out)
        assert main(["advise", str(path), "--workers", "0", "--json"]) == 0
        serial = json.loads(capsys.readouterr().out)
        # Deterministic: worker count never changes the answer.
        assert parallel["optimal"] == serial["optimal"]

    def test_matrix_workers_flag(self, capsys, fig7_spec_dict, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(fig7_spec_dict))
        assert main(["matrix", str(path), "--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert main(["matrix", str(path), "--workers", "0"]) == 0
        assert parallel == capsys.readouterr().out

    def test_negative_workers_rejected(self, capsys, fig7_spec_dict, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(fig7_spec_dict))
        assert main(["advise", str(path), "--workers", "-3"]) == 1
        assert "workers" in capsys.readouterr().err

    def test_advise_with_trace(self, capsys, fig7_spec_dict, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(fig7_spec_dict))
        assert main(["advise", str(path), "--trace"]) == 0
        assert "candidate" in capsys.readouterr().out

    def test_advise_strategy_flag(self, capsys, fig7_spec_dict, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(fig7_spec_dict))
        assert main(["advise", str(path), "--strategy", "dynamic_program", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["strategy"] == "dynamic_program"
        assert payload["optimal"]["configuration"][0]["organization"] == "NIX"

    def test_advise_unknown_strategy_rejected(self, fig7_spec_dict, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(fig7_spec_dict))
        with pytest.raises(SystemExit):
            main(["advise", str(path), "--strategy", "nope"])

    def test_matrix_command(self, capsys, fig7_spec_dict, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(fig7_spec_dict))
        assert main(["matrix", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Division.name" in out

    def test_paper_command(self, capsys):
        assert main(["paper"]) == 0
        assert "optimal:" in capsys.readouterr().out

    def test_missing_file_is_error(self, capsys):
        assert main(["advise", "/nonexistent/spec.json"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_spec_is_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": {"classes": []}}))
        assert main(["advise", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "arguments",
        [
            ["advise", "{dir}"],
            ["whatif", "{spec}", "--steps", "{dir}"],
            ["replay", "{spec}", "--trace", "{dir}"],
        ],
        ids=["spec", "steps", "trace"],
    )
    def test_directory_argument_is_error(
        self, capsys, fig7_spec_dict, tmp_path, arguments
    ):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(fig7_spec_dict))
        argv = [
            part.format(dir=tmp_path, spec=spec) for part in arguments
        ]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error:")
