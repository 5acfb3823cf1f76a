"""Tests for the ``multipath`` CLI subcommand.

Covers flag validation (beam width, budget, workers), the JSON output
shape, multi-spec handling, and the text report.
"""

import json

import pytest

from repro.cli import main
from repro.io import spec_to_dict
from repro.paper import FIGURE7_ROWS, figure7_load, figure7_statistics, pe_path


@pytest.fixture()
def fig7_spec_document():
    return spec_to_dict(figure7_statistics(), figure7_load())


@pytest.fixture()
def pexa_spec(tmp_path, fig7_spec_document):
    path = tmp_path / "pexa.json"
    path.write_text(json.dumps(fig7_spec_document))
    return str(path)


@pytest.fixture()
def pe_spec(tmp_path):
    from repro.costmodel.params import ClassStats, PathStatistics
    from repro.workload.load import LoadDistribution, LoadTriplet

    path = pe_path()
    per_class = {
        name: ClassStats(objects=n, distinct=d, fanout=nin)
        for name, (n, d, nin, _) in FIGURE7_ROWS.items()
        if name in path.scope
    }
    document = spec_to_dict(
        PathStatistics(path, per_class),
        LoadDistribution(
            path,
            {name: LoadTriplet(*FIGURE7_ROWS[name][3]) for name in path.scope},
        ),
    )
    spec_path = tmp_path / "pe.json"
    spec_path.write_text(json.dumps(document))
    return str(spec_path)


class TestMultipathCLI:
    def test_text_output(self, capsys, pexa_spec, pe_spec):
        assert main(["multipath", pexa_spec, pe_spec]) == 0
        out = capsys.readouterr().out
        assert "chosen configuration" in out
        assert "independent optima total" in out
        assert "sharing savings" in out
        assert "Person.owns.man" in out
        # The summary appears exactly once (table only, no duplicate
        # render block).
        assert out.count("sharing savings") == 1

    def test_json_output_shape(self, capsys, pexa_spec, pe_spec):
        assert main(["multipath", pexa_spec, pe_spec, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["paths"]) == 2
        assert payload["paths"][0]["path"] == "Person.owns.man.divisions.name"
        first = payload["paths"][0]["configuration"][0]
        assert set(first) == {"subpath", "start", "end", "organization"}
        assert payload["total_cost"] <= payload["independent_cost"] + 1e-9
        assert payload["shared_savings"] >= 0.0
        assert payload["budget_pages"] is None
        assert payload["exact"] is True
        assert payload["storage_pages"] > 0.0

    def test_single_spec_accepted(self, capsys, pexa_spec):
        assert main(["multipath", pexa_spec, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["paths"]) == 1
        assert payload["shared_savings"] == pytest.approx(0.0)

    def test_beam_width_flag(self, capsys, pexa_spec, pe_spec):
        assert main(
            ["multipath", pexa_spec, pe_spec, "--beam-width", "54", "--json"]
        ) == 0
        beam = json.loads(capsys.readouterr().out)
        assert main(["multipath", pexa_spec, pe_spec, "--json"]) == 0
        exact = json.loads(capsys.readouterr().out)
        # Width 54 covers the length-4 candidate space: parity with exact.
        assert beam["total_cost"] == pytest.approx(exact["total_cost"])

    def test_zero_beam_width_rejected(self, capsys, pexa_spec):
        assert main(["multipath", pexa_spec, "--beam-width", "0"]) == 1
        assert "beam width" in capsys.readouterr().err

    def test_negative_budget_rejected(self, capsys, pexa_spec):
        assert main(["multipath", pexa_spec, "--budget-pages", "-5"]) == 1
        assert "negative" in capsys.readouterr().err

    def test_nan_budget_rejected(self, capsys, pexa_spec):
        assert main(["multipath", pexa_spec, "--budget-pages", "nan"]) == 1
        assert "storage budget" in capsys.readouterr().err

    def test_noindex_respects_spec_organizations(
        self, capsys, tmp_path, fig7_spec_document
    ):
        # A spec that restricts organizations keeps its restriction under
        # --noindex (NONE is already present, nothing else is added).
        fig7_spec_document["options"]["organizations"] = ["MX", "NONE"]
        spec_path = tmp_path / "restricted.json"
        spec_path.write_text(json.dumps(fig7_spec_document))
        assert main(["multipath", str(spec_path), "--noindex", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        used = {
            entry["organization"]
            for path in payload["paths"]
            for entry in path["configuration"]
        }
        assert used <= {"MX", "NONE"}

    @pytest.mark.parametrize("command", ["multipath", "advise"])
    def test_repeated_organization_is_error(
        self, capsys, tmp_path, fig7_spec_document, command
    ):
        fig7_spec_document["options"]["organizations"] = ["MX", "MX", "NIX"]
        spec_path = tmp_path / "repeated.json"
        spec_path.write_text(json.dumps(fig7_spec_document))
        assert main([command, str(spec_path), "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: organization MX is listed more than once" in captured.err

    def test_budget_flag_reported(self, capsys, pexa_spec, pe_spec):
        assert main(
            [
                "multipath",
                pexa_spec,
                pe_spec,
                "--budget-pages",
                "1e9",
                "--json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["budget_pages"] == pytest.approx(1e9)
        assert payload["storage_pages"] <= 1e9
        assert payload["unconstrained_cost"] is not None

    def test_tight_budget_with_noindex_feasible(
        self, capsys, pexa_spec, pe_spec
    ):
        assert main(
            [
                "multipath",
                pexa_spec,
                pe_spec,
                "--noindex",
                "--budget-pages",
                "0",
                "--json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["storage_pages"] == 0.0
        organizations = {
            entry["organization"]
            for path in payload["paths"]
            for entry in path["configuration"]
        }
        assert organizations == {"NONE"}

    def test_tight_budget_without_noindex_is_error(
        self, capsys, pexa_spec, pe_spec
    ):
        assert main(
            ["multipath", pexa_spec, pe_spec, "--budget-pages", "0"]
        ) == 1
        assert "NONE organization" in capsys.readouterr().err

    def test_negative_workers_rejected(self, capsys, pexa_spec):
        assert main(["multipath", pexa_spec, "--workers", "-2"]) == 1
        assert "workers" in capsys.readouterr().err

    def test_workers_do_not_change_the_answer(
        self, capsys, pexa_spec, pe_spec
    ):
        assert main(
            ["multipath", pexa_spec, pe_spec, "--workers", "2", "--json"]
        ) == 0
        parallel = json.loads(capsys.readouterr().out)
        assert main(
            ["multipath", pexa_spec, pe_spec, "--workers", "0", "--json"]
        ) == 0
        serial = json.loads(capsys.readouterr().out)
        assert parallel == serial

    def test_per_row_organizations_validated(self, capsys, pexa_spec):
        assert main(
            ["multipath", pexa_spec, "--per-row-organizations", "0"]
        ) == 1
        assert "organizations per block" in capsys.readouterr().err

    def test_missing_spec_is_error(self, capsys):
        assert main(["multipath", "/nonexistent/spec.json"]) == 1
        assert "error:" in capsys.readouterr().err
