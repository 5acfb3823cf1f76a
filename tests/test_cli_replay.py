"""CLI coverage for the ``trace`` and ``replay`` subcommands (PR 5)."""

import json

import pytest

from repro.cli import main
from repro.io import spec_to_dict
from repro.paper import figure7_load, figure7_statistics


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory):
    document = spec_to_dict(figure7_statistics(), figure7_load())
    path = tmp_path_factory.mktemp("replay") / "spec.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def trace_path(spec_path, tmp_path_factory):
    path = tmp_path_factory.mktemp("replay") / "trace.jsonl"
    code = main(
        [
            "trace",
            spec_path,
            "--regime",
            "mixed_drift",
            "--events",
            "600",
            "--seed",
            "3",
            "--out",
            str(path),
        ]
    )
    assert code == 0
    return str(path)


class TestTraceCommand:
    def test_writes_jsonl_file(self, spec_path, trace_path):
        lines = [
            line
            for line in open(trace_path, encoding="utf-8").read().splitlines()
            if line
        ]
        assert len(lines) == 600
        event = json.loads(lines[0])
        assert set(event) == {"ts", "kind", "class"}

    def test_deterministic_under_seed(self, spec_path, tmp_path):
        paths = []
        for name in ("a.jsonl", "b.jsonl"):
            target = tmp_path / name
            assert (
                main(
                    [
                        "trace",
                        spec_path,
                        "--events",
                        "100",
                        "--seed",
                        "9",
                        "--out",
                        str(target),
                    ]
                )
                == 0
            )
            paths.append(target.read_text(encoding="utf-8"))
        assert paths[0] == paths[1]

    def test_stdout_when_no_out(self, spec_path, capsys):
        code = main(["trace", spec_path, "--events", "5"])
        output = capsys.readouterr().out
        assert code == 0
        lines = [line for line in output.splitlines() if line]
        assert len(lines) == 5
        json.loads(lines[0])

    def test_rejects_unknown_regime(self, spec_path):
        with pytest.raises(SystemExit):
            main(["trace", spec_path, "--regime", "chaotic"])


class TestReplayCommand:
    def test_renders_timeline_table(self, spec_path, trace_path, capsys):
        code = main(
            [
                "replay",
                spec_path,
                "--trace",
                trace_path,
                "--window",
                "100",
                "--slide",
                "50",
                "--threshold",
                "0.2",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "baseline" in output
        assert "dirty rows" in output
        assert "re-advises" in output

    def test_json_payload_structure(self, spec_path, trace_path, capsys):
        code = main(
            [
                "replay",
                spec_path,
                "--trace",
                trace_path,
                "--window",
                "100",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["window"] == 100
        assert payload["events"] == 600
        assert payload["windows"] >= 1
        steps = payload["steps"]
        assert steps[0]["step"] == 0
        assert steps[0]["mode"] is None
        for step in steps[1:]:
            assert step["mode"] in ("incremental", "full")
            assert step["perturbations"] > 0
            assert isinstance(step["configuration"], list)

    def test_missing_trace_file_fails_cleanly(self, spec_path, capsys):
        code = main(
            ["replay", spec_path, "--trace", "/nonexistent/trace.jsonl"]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_bad_window_fails_cleanly(self, spec_path, trace_path, capsys):
        code = main(
            ["replay", spec_path, "--trace", trace_path, "--window", "0"]
        )
        assert code == 1
        assert "window" in capsys.readouterr().err

    def test_negative_deadline_fails_in_milliseconds(
        self, spec_path, trace_path, capsys
    ):
        code = main(
            [
                "replay", spec_path, "--trace", trace_path,
                "--window", "100", "--deadline-ms", "-1",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "-1" in err and "milliseconds" in err
        assert "-0.001" not in err

    def test_track_stats_and_noindex_accepted(
        self, spec_path, trace_path, capsys
    ):
        code = main(
            [
                "replay",
                spec_path,
                "--trace",
                trace_path,
                "--window",
                "150",
                "--track-stats",
                "--noindex",
                "--hysteresis",
                "1",
            ]
        )
        assert code == 0
        assert "events" in capsys.readouterr().out
