"""End-to-end observability: the recorder threaded through the pipeline.

What PR 10 promises and these tests pin:

* ``advise`` under a :class:`~repro.obs.Recorder` produces the span tree
  the taxonomy in ``docs/OBSERVABILITY.md`` documents — ``advise`` at
  the root, the matrix build and every search nested inside it — and
  the core counters;
* worker-parallel matrix builds merge worker profiles into the parent:
  worker spans land on their own ``tid`` lanes and the merged
  ``matrix.rows_priced`` total equals the serial build's;
* ``kernel.fold`` splits into one ``kernel.fold.<organization>`` span
  per canonical organization, and ``kernel.entries`` counts the priced
  (row, organization) entries the same for serial and pooled builds;
* the what-if session, multipath optimizer, continuous advisor and the
  ground-truth backend all record under their documented names;
* the CLI ``--profile`` flag writes a file that
  ``tools/check_trace.py`` validates (the same gate the ``obs`` CI job
  runs), and two ``FakeClock``-driven runs export byte for byte.
"""

import importlib.util
import json
import multiprocessing
import pathlib

import pytest
from conftest import assert_same_bits, make_suffix_fleet

import multipath_reference
import repro.core.multipath as multipath_module
from repro.cli import main as cli_main
from repro.core.advisor import advise
from repro.core.cost_matrix import CostMatrix
from repro.core.multipath import PathWorkload, build_fleet, optimize_multipath
from repro.costmodel.params import ClassStats, PathStatistics
from repro.io import spec_to_dict
from repro.obs import Recorder, dumps_profile, profile_document
from repro.obs.recorder import resolve_recorder
from repro.organizations import ALL_ORGANIZATIONS, EXTENDED_ORGANIZATIONS
from repro.paper import figure7_load, figure7_statistics
from repro.resilience import FakeClock
from repro.synth import LevelSpec, linear_path_schema, populate_path_database
from repro.trace import ContinuousAdvisor, generate_trace, write_trace
from repro.whatif import AdvisorSession, Perturbation
from repro.workload.load import LoadDistribution

ROOT = pathlib.Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "check_trace", ROOT / "tools" / "check_trace.py"
)
check_trace = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_trace)


def make_world(length=5, objects=40_000):
    levels = [
        LevelSpec(f"L{i}", subclasses=(0, 1, 0, 2, 0)[i % 5])
        for i in range(length)
    ]
    _schema, path = linear_path_schema(levels)
    per_class = {}
    count = objects
    for position in range(1, length + 1):
        for member in path.hierarchy_at(position):
            per_class[member] = ClassStats(
                objects=count, distinct=max(5, count // 4), fanout=1.0
            )
        count = max(50, count // 3)
    stats = PathStatistics(path, per_class)
    load = LoadDistribution.uniform(path, query=0.2, insert=0.1, delete=0.05)
    return stats, load


def span_names(recorder):
    return [span["name"] for span in recorder.spans]


class TestAdviseSpans:
    def test_nested_span_tree_and_counters(self):
        stats, load = make_world()
        recorder = Recorder()
        advise(stats, load, recorder=recorder)
        names = span_names(recorder)
        assert "advise" in names
        assert "matrix.build" in names
        assert any(name.startswith("search.") for name in names)
        root = next(s for s in recorder.spans if s["name"] == "advise")
        build = next(s for s in recorder.spans if s["name"] == "matrix.build")
        assert root["depth"] == 0
        assert build["depth"] > 0
        counters = recorder.profile()["metrics"]["counters"]
        assert counters["advise.calls"] == 1
        assert counters["matrix.builds"] == 1
        assert counters["matrix.rows_priced"] == stats.length * (
            stats.length + 1
        ) // 2

    def test_default_recorder_records_nothing(self):
        stats, load = make_world(length=4)
        result = advise(stats, load)
        assert result.optimal.cost > 0


class TestWorkerAggregation:
    def test_parallel_build_merges_worker_profiles(self):
        stats, load = make_world(length=8)
        serial = Recorder()
        CostMatrix.compute(stats, load, workers=0, recorder=serial)
        parallel = Recorder()
        CostMatrix.compute(stats, load, workers=2, recorder=parallel)
        serial_rows = serial.profile()["metrics"]["counters"][
            "matrix.rows_priced"
        ]
        parallel_rows = parallel.profile()["metrics"]["counters"][
            "matrix.rows_priced"
        ]
        assert serial_rows == parallel_rows == 36
        worker_tids = {s["tid"] for s in parallel.spans if s["tid"] != 0}
        assert worker_tids, "no worker spans were absorbed"
        assert any(
            s["name"] == "matrix.worker_batch" and s["tid"] in worker_tids
            for s in parallel.spans
        )
        # Worker lanes render distinctly in the Chrome trace.
        document = profile_document(parallel)
        assert check_trace.validate(document) == []


class TestKernelFoldSpans:
    ORGANIZATIONS = ("mx", "mix", "nix", "px", "nx", "none")

    def test_organization_spans_nest_under_fold(self):
        stats, load = make_world(length=6)
        recorder = Recorder()
        CostMatrix.compute(stats, load, ALL_ORGANIZATIONS, recorder=recorder)
        spans = recorder.spans
        (fold,) = [s for s in spans if s["name"] == "kernel.fold"]
        children = [s for s in spans if s["name"].startswith("kernel.fold.")]
        assert sorted(s["name"] for s in children) == sorted(
            f"kernel.fold.{name}" for name in self.ORGANIZATIONS
        )
        for child in children:
            assert child["depth"] == fold["depth"] + 1
            assert fold["ts"] <= child["ts"]
            assert child["ts"] + child["dur"] <= fold["ts"] + fold["dur"]

    def test_entry_count_matches_across_worker_counts(self):
        counts = []
        for workers in (0, 2):
            stats, load = make_world(length=8)
            recorder = Recorder()
            matrix = CostMatrix.compute(
                stats, load, workers=workers, recorder=recorder
            )
            counts.append(
                recorder.profile()["metrics"]["counters"]["kernel.entries"]
            )
        assert counts[0] == counts[1] == 36 * len(matrix.organizations)


class TestRecorderChangesNoWork:
    @staticmethod
    def run(make_recorder):
        """One sequence of builds and recomputes on fresh inputs, each step
        under its own ``make_recorder()``: per step its name, recorder,
        matrices and the number of lowerings each statistics object it
        touched has cached."""
        stats, load = make_world(length=6)
        _, drifted = Perturbation("L2", "query", "scale", 3.0).apply(stats, load)
        grown, _ = Perturbation("L3", "objects", "scale", 2.0).apply(
            stats, drifted
        )
        _, equal = Perturbation("L1", "query", "scale", 1.0).apply(grown, drifted)
        fleet = make_suffix_fleet(7, chain_length=8, paths=3)
        steps = []

        def step(name, build, *statistics):
            recorder = make_recorder()
            matrices = build(recorder)
            cached = [len(each._stat_arrays_cache) for each in statistics]
            steps.append((name, recorder, matrices, cached))
            return matrices[0]

        serial = step(
            "serial",
            lambda r: [CostMatrix.compute(stats, load, workers=0, recorder=r)],
            stats,
        )
        step(
            "pool",
            lambda r: [CostMatrix.compute(stats, load, workers=2, recorder=r)],
            stats,
        )
        load_drift = step(
            "load drift",
            lambda r: [serial.recompute(load=drifted, recorder=r)],
            stats,
        )
        stats_drift = step(
            "stats drift",
            lambda r: [load_drift.recompute(stats=grown, recorder=r)],
            stats, grown,
        )
        noop = step(
            "no-op",
            lambda r: [stats_drift.recompute(load=equal, recorder=r)],
            stats, grown,
        )
        assert noop.recompute_report.dirty_count == 0
        step(
            "fleet",
            lambda r: build_fleet(
                fleet,
                lambda workload: CostMatrix.compute(
                    workload.stats, workload.load, workers=0, recorder=r
                ),
                recorder=resolve_recorder(r),
            ),
            *(workload.stats for workload in fleet),
        )
        return steps

    def test_recorded_and_plain_runs_do_the_same_work(self):
        """A recorder changes the record, not the work: with and without
        one, every step prices bit-identical matrices and leaves as many
        lowerings cached."""
        recorded = self.run(Recorder)
        plain = self.run(lambda: None)
        for (name, _, mine, my_cache), (_, _, theirs, their_cache) in zip(
            recorded, plain
        ):
            assert my_cache == their_cache, name
            assert len(mine) == len(theirs), name
            for left, right in zip(mine, theirs):
                assert_same_bits(left, right)
        steps = {name: recorder for name, recorder, _, _ in recorded}
        # No dirty row, no lowering.
        assert "kernel.lower" not in span_names(steps["no-op"])
        # A pool build on lowered inputs finds them in the advising
        # process (lane 0). Fork-started workers inherit the lowering;
        # workers started any other way lower their own, each lowering
        # one miss.
        pool = steps["pool"]
        counters = pool.profile()["metrics"]["counters"]
        lowered = [s["tid"] for s in pool.spans if s["name"] == "kernel.lower"]
        assert 0 not in lowered
        assert counters.get("kernel.lowering_cache.misses", 0) == len(lowered)
        if multiprocessing.get_start_method() == "fork":
            assert counters["kernel.lowering_cache.hits"] == 1
            assert not lowered


class TestSessionSpans:
    def test_apply_and_advise_record(self):
        stats, load = make_world()
        recorder = Recorder()
        session = AdvisorSession(stats, load, recorder=recorder)
        new_stats, new_load = Perturbation("L4", "query", "scale", 2.0).apply(
            stats, load
        )
        session.apply(new_stats, new_load)
        session.advise()
        session.advise()  # cached
        names = span_names(recorder)
        assert "session.apply" in names
        assert "session.advise" in names
        counters = recorder.profile()["metrics"]["counters"]
        assert counters["whatif.applied_steps"] == 1
        assert counters["whatif.advise_cache_hits"] == 1
        assert counters["matrix.recomputes"] == 1


class TestMultipathSpans:
    def test_optimize_records(self):
        stats_a, load_a = make_world(length=4)
        stats_b, load_b = make_world(length=3)
        recorder = Recorder()
        optimize_multipath(
            [
                PathWorkload(stats_a, load_a),
                PathWorkload(stats_b, load_b),
            ],
            recorder=recorder,
        )
        names = span_names(recorder)
        assert "multipath.optimize" in names
        assert "multipath.candidates" in names
        assert "multipath.joint" in names
        counters = recorder.profile()["metrics"]["counters"]
        assert counters["multipath.optimizations"] == 1

    def test_units_adopted_counts_suffix_rows(self):
        """``kernel.units_adopted`` counts one per (row, canonical
        organization) unit set a suffix path adopts from its longest
        path: every row of the three suffixes (lengths 11, 10 and 9 of a
        12-class chain) in each of the four organizations. Unrelated
        paths adopt nothing."""
        recorder = Recorder()
        optimize_multipath(
            make_suffix_fleet(31, chain_length=12, paths=4),
            organizations=EXTENDED_ORGANIZATIONS,
            beam_width=4,
            recorder=recorder,
        )
        counters = recorder.profile()["metrics"]["counters"]
        assert counters["kernel.units_adopted"] == (66 + 55 + 45) * 4

        stats_a, load_a = make_world(length=4)
        stats_b, load_b = make_world(length=3)
        recorder = Recorder()
        optimize_multipath(
            [PathWorkload(stats_a, load_a), PathWorkload(stats_b, load_b)],
            recorder=recorder,
        )
        counters = recorder.profile()["metrics"]["counters"]
        assert counters.get("kernel.units_adopted", 0) == 0

    def test_joint_span_counts_swaps(self, monkeypatch):
        """``priced`` and ``moves`` on the sweep regime's joint span count
        what the per-trial reference scans do for the same fleet."""
        workloads = make_suffix_fleet(31, chain_length=12, paths=4)
        matrices = [
            CostMatrix.compute(w.stats, w.load, organizations=EXTENDED_ORGANIZATIONS)
            for w in workloads
        ]
        generous = optimize_multipath(
            workloads, matrices=matrices, budget_pages=10**12
        )
        budget = 0.25 * generous.storage_pages
        recorder = Recorder()
        optimize_multipath(
            workloads, matrices=matrices, budget_pages=budget, recorder=recorder
        )
        (joint,) = [s for s in recorder.spans if s["name"] == "multipath.joint"]
        assert joint["args"]["combinations"] > multipath_module._EXACT_LIMIT
        with monkeypatch.context() as patch:
            work = multipath_reference.install(patch)
            optimize_multipath(workloads, matrices=matrices, budget_pages=budget)
        assert joint["args"]["moves"] == work.moves > 0
        assert joint["args"]["priced"] == work.priced > work.moves


class TestReplaySpans:
    def test_continuous_advisor_counts_events(self):
        stats, load = make_world()
        recorder = Recorder()
        advisor = ContinuousAdvisor(
            stats,
            load,
            window=40,
            slide=20,
            threshold=0.1,
            hysteresis=1,
            recorder=recorder,
        )
        trace = generate_trace(stats.path, "mixed_drift", 200, seed=3)
        for event in trace:
            advisor.push(event)
        counters = recorder.profile()["metrics"]["counters"]
        assert counters["replay.events"] == 200
        assert counters["replay.windows"] >= 1
        if advisor.readvise_count:
            assert counters["replay.readvises"] == advisor.readvise_count
            assert "replay.readvise" in span_names(recorder)


class TestBackendSpans:
    def test_replay_trace_records(self):
        from repro.backend import replay_trace
        from repro.core.configuration import IndexConfiguration
        from repro.organizations import IndexOrganization

        schema, path = linear_path_schema(
            [LevelSpec("P"), LevelSpec("V"), LevelSpec("D")]
        )
        specs = {
            "P": ClassStats(objects=30, distinct=15, fanout=2),
            "V": ClassStats(objects=20, distinct=8, fanout=1),
            "D": ClassStats(objects=12, distinct=5, fanout=2),
        }
        database = populate_path_database(schema, path, specs, seed=7)
        events = generate_trace(path, "stationary", 30, seed=1)
        recorder = Recorder()
        replay_trace(
            database,
            path,
            IndexConfiguration.whole_path(3, IndexOrganization.NIX),
            events,
            recorder=recorder,
        )
        names = span_names(recorder)
        assert "backend.materialize" in names
        assert "backend.replay" in names
        counters = recorder.profile()["metrics"]["counters"]
        assert counters["backend.replay.events"] == 30


class TestDeterministicExport:
    def run_once(self):
        stats, load = make_world()
        recorder = Recorder(FakeClock())
        advise(stats, load, recorder=recorder)
        return dumps_profile(recorder, meta={"command": "advise"})

    def test_fake_clock_profiles_are_byte_identical(self):
        first = self.run_once()
        assert first == self.run_once()
        assert '"kernel.fold.nix"' in first


class TestCliProfile:
    @pytest.fixture()
    def spec_path(self, tmp_path):
        document = spec_to_dict(figure7_statistics(), figure7_load())
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        return str(path)

    def test_advise_profile_validates(self, spec_path, tmp_path, capsys):
        profile = tmp_path / "profile.json"
        code = cli_main(
            ["advise", spec_path, "--profile", str(profile), "--stats"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "observability stats" in output
        document = json.loads(profile.read_text(encoding="utf-8"))
        assert document["meta"] == {"command": "advise"}
        failures = check_trace.validate(
            document, required_spans=("advise", "matrix.build")
        )
        assert failures == []

    def test_whatif_profile_validates(self, spec_path, tmp_path):
        profile = tmp_path / "profile.json"
        code = cli_main(
            [
                "whatif",
                spec_path,
                "--perturb",
                "Division:delete*2",
                "--profile",
                str(profile),
            ]
        )
        assert code == 0
        document = json.loads(profile.read_text(encoding="utf-8"))
        failures = check_trace.validate(
            document, required_spans=("session.apply", "session.advise")
        )
        assert failures == []

    @pytest.mark.parametrize(
        "arguments, required",
        [
            (["multipath", "{spec}", "{spec}"], ("multipath.optimize",)),
            (
                ["replay", "{spec}", "--trace", "{trace}", "--window", "100"],
                ("replay.readvise",),
            ),
            (["measure", "--scenario", "nix-path-small"], ("backend.replay",)),
            # Calibration records nothing yet: the profile is still written.
            (["measure", "--layout", "btree"], ()),
        ],
        ids=["multipath", "replay", "measure-scenario", "measure-calibration"],
    )
    def test_profile_lifecycle(
        self, spec_path, tmp_path, capsys, arguments, required
    ):
        trace = tmp_path / "trace.jsonl"
        path = figure7_statistics().path
        write_trace(generate_trace(path, "mixed_drift", 600, seed=3), trace)
        profile = tmp_path / "profile.json"
        argv = [part.format(spec=spec_path, trace=trace) for part in arguments]
        code = cli_main(argv + ["--profile", str(profile), "--stats"])
        assert code == 0
        assert "observability stats" in capsys.readouterr().out
        document = json.loads(profile.read_text(encoding="utf-8"))
        assert document["meta"] == {"command": arguments[0]}
        assert check_trace.validate(document, required_spans=required) == []

    def test_failing_command_writes_no_profile(self, spec_path, tmp_path):
        profile = tmp_path / "profile.json"
        code = cli_main(["whatif", spec_path, "--profile", str(profile)])
        assert code == 1
        assert not profile.exists()
