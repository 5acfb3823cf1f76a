"""CLI coverage for the ``whatif`` subcommand and the multipath restarts flag."""

import json

import pytest

from repro.cli import main
from repro.io import spec_to_dict
from repro.paper import figure7_load, figure7_statistics


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory):
    document = spec_to_dict(figure7_statistics(), figure7_load())
    path = tmp_path_factory.mktemp("whatif") / "spec.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


class TestWhatIfCommand:
    def test_perturb_flags_render_table(self, spec_path, capsys):
        code = main(
            [
                "whatif",
                spec_path,
                "--perturb",
                "Division:delete*2",
                "--perturb",
                "Division:query*4",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "baseline" in output
        assert "Division:delete*2" in output
        assert "configuration changes" in output

    def test_steps_file(self, spec_path, tmp_path, capsys):
        steps = tmp_path / "steps.json"
        steps.write_text(
            json.dumps(
                {
                    "steps": [
                        {"class": "Division", "component": "delete", "scale": 2},
                        {"class": "Vehicle", "component": "insert", "set": 0.4},
                    ]
                }
            ),
            encoding="utf-8",
        )
        code = main(["whatif", spec_path, "--steps", str(steps)])
        output = capsys.readouterr().out
        assert code == 0
        assert "Vehicle:insert=0.4" in output

    def test_json_payload_structure(self, spec_path, capsys):
        code = main(
            ["whatif", spec_path, "--perturb", "Division:delete*2", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["strategy"] == "incremental_dynamic_program"
        assert [step["step"] for step in payload["steps"]] == [0, 1]
        baseline, step = payload["steps"]
        assert baseline["mode"] is None
        assert step["mode"] == "incremental"
        assert step["rows_recomputed"] > 0
        assert step["rows_patched"] > 0  # the delete-at-Division CMD patch
        assert step["configuration"]

    def test_no_perturbations_is_an_error(self, spec_path, capsys):
        code = main(["whatif", spec_path])
        assert code == 1
        assert "no perturbations" in capsys.readouterr().err

    def test_bad_perturbation_is_an_error(self, spec_path, capsys):
        code = main(["whatif", spec_path, "--perturb", "Division:nope*2"])
        assert code == 1
        assert "component" in capsys.readouterr().err

    def test_unknown_class_is_an_error(self, spec_path, capsys):
        code = main(["whatif", spec_path, "--perturb", "Martian:query*2"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_explicit_strategy(self, spec_path, capsys):
        code = main(
            [
                "whatif",
                spec_path,
                "--perturb",
                "Division:query*2",
                "--strategy",
                "branch_and_bound",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["strategy"] == "branch_and_bound"

    def test_kernel_fallback_printed_once(self, tmp_path, capsys):
        # Under a range predicate a query change at the last class dirties
        # only rows ending at the last attribute, which the kernel leaves
        # to the scalar oracle: the table's footnote names the reason.
        document = spec_to_dict(figure7_statistics(), figure7_load())
        document["options"]["range_selectivity"] = 0.1
        path = tmp_path / "range.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        code = main(["whatif", str(path), "--perturb", "Division:query*2"])
        assert code == 0
        output = capsys.readouterr().out
        assert output.count("range predicate (scalar oracle)") == 1


class TestMultipathRestartsFlag:
    def test_restarts_flag_accepted(self, spec_path, capsys):
        code = main(["multipath", spec_path, spec_path, "--restarts", "2"])
        assert code == 0
        assert "joint" in capsys.readouterr().out

    def test_negative_restarts_rejected(self, spec_path, capsys):
        code = main(["multipath", spec_path, "--restarts", "-1"])
        assert code == 1
        assert "restarts" in capsys.readouterr().err
