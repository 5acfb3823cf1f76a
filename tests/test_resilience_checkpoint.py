"""Checkpoint/restore: kill a process mid-stream, resume bit-identically.

The headline property (Hypothesis-pinned): for every seeded trace
regime and an arbitrary cut point, checkpointing a
:class:`~repro.trace.ContinuousAdvisor`, discarding the process state,
restoring from disk and feeding the remainder of the trace yields a
:class:`~repro.trace.ReplayStep` timeline *bit-identical* (via the
canonical serialization) to the run that was never interrupted.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.multipath as multipath_module
from repro.core.multipath import PathWorkload, optimize_multipath
from repro.costmodel.params import ClassStats, PathStatistics
from repro.errors import CheckpointError
from repro.obs import Recorder
from repro.resilience import (
    restore_advisor,
    restore_multipath,
    restore_session,
    save_advisor,
    save_multipath,
    save_session,
)
from repro.resilience.checkpoint import _serialize
from repro.resilience.faults import FaultInjector
from repro.synth import LevelSpec, linear_path_schema
from repro.trace import ContinuousAdvisor, ReplayStep, generate_trace
from repro.whatif import AdvisorSession, MultiPathSession, Perturbation
from repro.workload.load import LoadDistribution


def make_world(length=4, subclasses=(0, 1, 0, 0), prefix="L", objects=20_000):
    levels = [
        LevelSpec(f"{prefix}{i}", subclasses=subclasses[i % len(subclasses)])
        for i in range(length)
    ]
    _schema, path = linear_path_schema(levels)
    per_class = {}
    remaining = objects
    for position in range(1, length + 1):
        for member in path.hierarchy_at(position):
            per_class[member] = ClassStats(
                objects=remaining, distinct=max(10, remaining // 6), fanout=1.0
            )
        remaining = max(50, remaining // 5)
    stats = PathStatistics(path, per_class)
    load = LoadDistribution.uniform(path, query=0.3, insert=0.1, delete=0.05)
    return stats, load


def timeline(advisor: ContinuousAdvisor) -> list[dict]:
    """The canonical serialized form both runs are compared through."""
    return [step.to_dict() for step in advisor.steps]


# ----------------------------------------------------------------------
# the kill-and-resume property
# ----------------------------------------------------------------------
@st.composite
def interrupted_replays(draw):
    regime = draw(
        st.sampled_from(["stationary", "edge_drift", "mixed_drift", "bursty"])
    )
    seed = draw(st.integers(min_value=0, max_value=1000))
    window = draw(st.sampled_from([40, 60, 100]))
    threshold = draw(st.sampled_from([0.05, 0.2]))
    track = draw(st.booleans())
    events = 4 * window
    cut = draw(st.integers(min_value=0, max_value=events))
    return regime, seed, window, threshold, track, events, cut


class TestKillAndResume:
    @pytest.mark.timeout(300)
    @given(world=interrupted_replays())
    @settings(max_examples=12, deadline=None)
    def test_resumed_timeline_is_bit_identical(self, world, tmp_path_factory):
        """Checkpoint at an arbitrary event, kill, restore: same timeline."""
        regime, seed, window, threshold, track, events, cut = world
        stats, load = make_world()
        trace = generate_trace(stats.path, regime, events, seed=seed)
        options = dict(
            window=window,
            threshold=threshold,
            hysteresis=2,
            track_statistics=track,
        )

        uninterrupted = ContinuousAdvisor(stats, load, **options)
        uninterrupted.replay(trace)

        interrupted = ContinuousAdvisor(stats, load, **options)
        interrupted.process(trace[:cut])
        path = tmp_path_factory.mktemp("ckpt") / "advisor.ckpt"
        save_advisor(interrupted, path)
        del interrupted  # the process dies here

        resumed = restore_advisor(path, stats, load)
        resumed.process(trace[cut:])
        resumed.flush()
        assert timeline(resumed) == timeline(uninterrupted)

    def test_resume_mid_stream_counters_match(self, tmp_path):
        """The restored advisor's bookkeeping equals the live one's."""
        stats, load = make_world()
        trace = generate_trace(stats.path, "edge_drift", 500, seed=3)
        advisor = ContinuousAdvisor(stats, load, window=80)
        advisor.process(trace[:333])
        path = tmp_path / "advisor.ckpt"
        assert save_advisor(advisor, path) > 0
        restored = restore_advisor(path, stats, load)
        assert restored.events_seen == advisor.events_seen
        assert restored.windows_seen == advisor.windows_seen
        assert restored.windows_held == advisor.windows_held
        assert restored.readvise_count == advisor.readvise_count
        assert restored.session.version == advisor.session.version
        assert len(restored._pending) == len(advisor._pending)
        assert timeline(restored) == timeline(advisor)


    def test_steps_written_with_kernel_slice_fields_still_load(self):
        """Checkpoints written while some rows could be priced outside the
        kernel carry ``kernel_slice_rows`` and ``kernel_fallback_reason``
        in every step's report; such a step loads into the same step."""
        stats, load = make_world()
        trace = generate_trace(stats.path, "edge_drift", 300, seed=1)
        advisor = ContinuousAdvisor(stats, load, window=60)
        advisor.process(trace)
        steps = [step for step in advisor.steps if step.report is not None]
        assert steps
        for step in steps:
            document = step.to_dict()
            document["report"]["kernel_slice_rows"] = len(
                step.report.recomputed_rows
            )
            document["report"]["kernel_fallback_reason"] = None
            assert ReplayStep.from_dict(document).to_dict() == step.to_dict()


# ----------------------------------------------------------------------
# integrity checks
# ----------------------------------------------------------------------
class TestCheckpointIntegrity:
    def _checkpoint(self, tmp_path):
        stats, load = make_world()
        trace = generate_trace(stats.path, "edge_drift", 300, seed=1)
        advisor = ContinuousAdvisor(stats, load, window=60)
        advisor.process(trace)
        path = tmp_path / "advisor.ckpt"
        save_advisor(advisor, path)
        return path, stats, load

    def test_torn_checkpoint_is_detected(self, tmp_path):
        path, stats, load = self._checkpoint(tmp_path)
        FaultInjector(seed=5).torn_checkpoint(path)
        with pytest.raises(CheckpointError, match="torn|truncated|integrity"):
            restore_advisor(path, stats, load)

    def test_every_seeded_tear_is_detected(self, tmp_path):
        """Any prefix truncation must fail loudly, wherever the cut lands."""
        path, stats, load = self._checkpoint(tmp_path)
        pristine = path.read_bytes()
        for seed in range(8):
            path.write_bytes(pristine)
            FaultInjector(seed=seed).torn_checkpoint(path)
            with pytest.raises(CheckpointError):
                restore_advisor(path, stats, load)

    def test_bit_flip_fails_the_digest(self, tmp_path):
        path, stats, load = self._checkpoint(tmp_path)
        raw = path.read_bytes()
        index = len(raw) // 3
        flipped = raw[:index] + bytes([raw[index] ^ 0x01]) + raw[index + 1 :]
        path.write_bytes(flipped)
        with pytest.raises(CheckpointError):
            restore_advisor(path, stats, load)

    def test_wrong_baseline_statistics_are_rejected(self, tmp_path):
        path, stats, load = self._checkpoint(tmp_path)
        other_stats, other_load = make_world(objects=40_000)
        with pytest.raises(CheckpointError, match="baseline"):
            restore_advisor(path, other_stats, other_load)

    def test_strategy_mismatch_is_rejected(self, tmp_path):
        path, stats, load = self._checkpoint(tmp_path)
        with pytest.raises(CheckpointError, match="strategy"):
            restore_advisor(path, stats, load, strategy="branch_and_bound")

    def test_wrong_kind_is_rejected(self, tmp_path):
        stats, load = make_world()
        session = AdvisorSession(stats, load)
        session.advise()
        path = tmp_path / "session.ckpt"
        save_session(session, path)
        with pytest.raises(CheckpointError, match="kind|snapshot"):
            restore_advisor(path, stats, load)

    def test_missing_file_is_a_checkpoint_error(self, tmp_path):
        stats, load = make_world()
        with pytest.raises(CheckpointError, match="cannot read"):
            restore_advisor(tmp_path / "nope.ckpt", stats, load)

    def test_not_json_is_a_checkpoint_error(self, tmp_path):
        stats, load = make_world()
        path = tmp_path / "garbage.ckpt"
        path.write_text("this is not a checkpoint\nat all\n")
        with pytest.raises(CheckpointError):
            restore_advisor(path, stats, load)

    def test_checkpoint_is_valid_jsonl(self, tmp_path):
        path, _stats, _load = self._checkpoint(tmp_path)
        lines = path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["format"] == "repro-checkpoint"
        assert records[0]["version"] == 1
        assert records[-1]["section"] == "end"
        assert records[-1]["records"] == len(records) - 2


# ----------------------------------------------------------------------
# session and multipath checkpoints
# ----------------------------------------------------------------------
class TestSessionCheckpoint:
    def test_round_trip_preserves_the_next_answer(self, tmp_path):
        stats, load = make_world()
        session = AdvisorSession(stats, load)
        session.advise()
        session.perturb(
            Perturbation(
                class_name=str(stats.path.scope[0]),
                component="query",
                mode="scale",
                value=3.0,
            )
        )
        before = session.advise()
        path = tmp_path / "session.ckpt"
        save_session(session, path)
        restored = restore_session(path, stats, load)
        after = restored.advise()
        assert after.cost == before.cost
        assert after.configuration == before.configuration
        assert after.extras == before.extras
        assert restored.version == session.version
        assert restored.applied_steps == session.applied_steps

    def test_pending_dirty_rows_survive_the_round_trip(self, tmp_path):
        """A checkpoint taken after apply() but before advise() resumes
        with the dirty set intact, and the deferred refine still answers
        bit-identically."""
        stats, load = make_world()
        session = AdvisorSession(stats, load)
        session.advise()
        session.perturb(
            Perturbation(
                class_name=str(stats.path.scope[0]),
                component="insert",
                mode="scale",
                value=5.0,
            )
        )
        assert session._pending  # dirty rows not yet consumed
        path = tmp_path / "session.ckpt"
        save_session(session, path)
        restored = restore_session(path, stats, load)
        assert restored._pending == session._pending
        assert restored.advise().cost == session.advise().cost

    def test_degradation_log_survives(self, tmp_path):
        stats, load = make_world()
        session = AdvisorSession(stats, load)
        session.advise()
        session.degradation.record(
            "matrix", "serial_fallback", "OSError", workers=2
        )
        path = tmp_path / "session.ckpt"
        save_session(session, path)
        restored = restore_session(path, stats, load)
        assert restored.degradation.to_dicts() == session.degradation.to_dicts()


class TestMultiPathCheckpoint:
    def test_round_trip_preserves_the_joint_answer(self, tmp_path):
        stats_a, load_a = make_world()
        stats_b, load_b = make_world(objects=35_000, prefix="M")
        multipath = MultiPathSession(
            [AdvisorSession(stats_a, load_a), AdvisorSession(stats_b, load_b)]
        )
        before = multipath.optimize()
        path = tmp_path / "multipath.ckpt"
        save_multipath(multipath, path)
        restored = restore_multipath(
            path, [(stats_a, load_a), (stats_b, load_b)]
        )
        after = restored.optimize()
        assert after.total_cost == before.total_cost
        assert after.configurations == before.configurations

    def test_restored_session_records_into_the_recorder(self, tmp_path):
        stats_a, load_a = make_world()
        stats_b, load_b = make_world(objects=35_000, prefix="M")
        multipath = MultiPathSession(
            [AdvisorSession(stats_a, load_a), AdvisorSession(stats_b, load_b)]
        )
        path = tmp_path / "multipath.ckpt"
        save_multipath(multipath, path)
        recorder = Recorder()
        restored = restore_multipath(
            path, [(stats_a, load_a), (stats_b, load_b)], recorder=recorder
        )
        restored.optimize()
        names = {span["name"] for span in recorder.spans}
        assert {"multipath.optimize", "multipath.joint"} <= names

    def test_cached_joint_selection_of_older_files_is_ignored(
        self, tmp_path, monkeypatch
    ):
        """Files written while a session cached its descent-regime joint
        selection across calls end with a ``joint_cache`` section; they
        restore, and the next answer is a fresh one."""
        monkeypatch.setattr(multipath_module, "_EXACT_LIMIT", 1)
        baselines = [make_world(), make_world(objects=35_000, prefix="M")]
        multipath = MultiPathSession(
            [AdvisorSession(stats, load) for stats, load in baselines]
        )
        cached = multipath.optimize(beam_width=8)
        multipath.perturb(0, Perturbation("L1", "query", "scale", 3.0))
        path = tmp_path / "multipath.ckpt"
        save_multipath(multipath, path)
        records = [json.loads(line) for line in path.read_text().splitlines()[1:-1]]
        records.append(
            {
                "section": "joint_cache",
                "reuses": 0,
                "entry": {
                    "key": [2, 8, 4, 0],
                    "configurations": [
                        [
                            [part.start, part.end, part.organization.value]
                            for part in configuration.assignments
                        ]
                        for configuration in cached.configurations
                    ],
                },
            }
        )
        path.write_text(_serialize("multipath_session", records))
        restored = restore_multipath(path, baselines)
        fresh = optimize_multipath(
            [PathWorkload(s.stats, s.load) for s in restored.sessions],
            beam_width=8,
        )
        assert restored.optimize(beam_width=8) == fresh

    def test_baseline_count_mismatch_is_rejected(self, tmp_path):
        stats, load = make_world()
        multipath = MultiPathSession([AdvisorSession(stats, load)])
        path = tmp_path / "multipath.ckpt"
        save_multipath(multipath, path)
        with pytest.raises(CheckpointError, match="paths"):
            restore_multipath(path, [(stats, load), (stats, load)])
