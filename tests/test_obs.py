"""Unit tests for ``repro.obs``: clock seam, metrics, recorder, export.

The determinism contract is the load-bearing property: under a
:class:`~repro.resilience.FakeClock` two identical runs must serialize
byte for byte, because the CI ``obs`` job and the workflow docs both
promise that a profile is a pure function of the work performed, not of
the wall clock it happened to run on.
"""

import json

import pytest

from repro.obs import (
    NULL_RECORDER,
    MetricsRegistry,
    NullRecorder,
    Recorder,
    chrome_trace_events,
    dumps_profile,
    metric_key,
    profile_document,
    resolve_recorder,
    stats_table,
    write_profile,
)
from repro.resilience import FakeClock


class TestMetricKey:
    def test_bare_name(self):
        assert metric_key("matrix.builds", {}) == "matrix.builds"

    def test_labels_sorted(self):
        key = metric_key("x", {"zeta": 1, "alpha": "two"})
        assert key == "x{alpha=two,zeta=1}"


class TestMetricsRegistry:
    def test_counter_identity_and_accumulation(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits", layer="kernel")
        counter.add()
        registry.counter("hits", layer="kernel").add(4)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"hits{layer=kernel}": 5}

    def test_merge_adds_counters_and_histograms(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.counter("rows").add(10)
        worker.counter("rows").add(7)
        parent.merge(worker.snapshot())
        snapshot = parent.snapshot()
        assert snapshot["counters"]["rows"] == 17

    def test_snapshot_keys_sorted(self):
        registry = MetricsRegistry()
        registry.counter("zeta").add()
        registry.counter("alpha").add()
        assert list(registry.snapshot()["counters"]) == ["alpha", "zeta"]


class TestNullRecorder:
    def test_resolve_none_is_the_shared_null(self):
        assert resolve_recorder(None) is NULL_RECORDER
        real = Recorder(FakeClock())
        assert resolve_recorder(real) is real

    def test_every_operation_discards(self):
        recorder = NullRecorder()
        assert not recorder.enabled
        with recorder.span("x", a=1) as span:
            span.note(b=2)
        recorder.counter("c").add(5)
        recorder.absorb({"spans": [{"name": "w"}], "metrics": {}}, tid=1)
        assert recorder.profile() == {"spans": [], "metrics": {"counters": {}}}

    def test_shared_singletons(self):
        assert NULL_RECORDER.span("a") is NULL_RECORDER.span("b")
        assert NULL_RECORDER.counter("a") is NULL_RECORDER.counter("b")


class TestRecorderSpans:
    def test_nesting_depth_and_timing(self):
        clock = FakeClock()
        recorder = Recorder(clock)
        with recorder.span("outer"):
            clock.advance(1.0)
            with recorder.span("inner", detail="x") as inner:
                clock.advance(0.25)
                inner.note(rows=3)
            clock.advance(0.5)
        inner_span, outer_span = recorder.spans
        assert inner_span["name"] == "inner"
        assert inner_span["depth"] == 1
        assert inner_span["ts"] == 1.0
        assert inner_span["dur"] == 0.25
        assert inner_span["args"] == {"detail": "x", "rows": 3}
        assert outer_span["depth"] == 0
        assert outer_span["ts"] == 0.0
        assert outer_span["dur"] == 1.75

    def test_span_records_on_exception(self):
        clock = FakeClock()
        recorder = Recorder(clock)
        with pytest.raises(ValueError):
            with recorder.span("failing"):
                clock.advance(2.0)
                raise ValueError("boom")
        assert recorder.spans[0]["name"] == "failing"
        assert recorder.spans[0]["dur"] == 2.0
        assert recorder._depth == 0

    def test_absorb_rewrites_tid_and_merges_metrics(self):
        worker_clock = FakeClock()
        worker = Recorder(worker_clock)
        with worker.span("kernel.fold"):
            worker_clock.advance(0.5)
        worker.counter("matrix.rows_priced").add(9)
        parent = Recorder(FakeClock())
        parent.counter("matrix.rows_priced").add(1)
        parent.absorb(worker.profile(), tid=2)
        assert parent.spans[0]["tid"] == 2
        snapshot = parent.profile()["metrics"]
        assert snapshot["counters"]["matrix.rows_priced"] == 10

    def test_absorb_empty_profile_is_noop(self):
        parent = Recorder(FakeClock())
        parent.absorb({}, tid=3)
        parent.absorb(None, tid=4)
        assert parent.spans == []


class TestExport:
    def make_recorder(self):
        clock = FakeClock()
        recorder = Recorder(clock)
        with recorder.span("advise"):
            clock.advance(0.01)
            with recorder.span("matrix.build", rows=6):
                clock.advance(0.002)
        recorder.counter("advise.calls").add()
        worker_clock = FakeClock()
        worker = Recorder(worker_clock)
        with worker.span("matrix.worker_batch"):
            worker_clock.advance(0.003)
        recorder.absorb(worker.profile(), tid=1)
        return recorder

    def test_chrome_events_shape(self):
        events = chrome_trace_events(self.make_recorder())
        metadata = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert metadata[0]["args"]["name"] == "repro"
        thread_names = {
            e["tid"]: e["args"]["name"]
            for e in metadata
            if e["name"] == "thread_name"
        }
        assert thread_names == {0: "main", 1: "worker-1"}
        for event in complete:
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
        build = next(e for e in complete if e["name"] == "matrix.build")
        assert build["cat"] == "matrix"
        assert build["ts"] == pytest.approx(10_000.0)
        assert build["dur"] == pytest.approx(2_000.0)
        assert build["args"] == {"rows": 6, "depth": 1}

    def test_profile_document_shape(self):
        document = profile_document(self.make_recorder(), meta={"command": "t"})
        assert document["displayTimeUnit"] == "ms"
        assert document["meta"] == {"command": "t"}
        assert document["metrics"]["counters"]["advise.calls"] == 1

    def test_fake_clock_runs_export_byte_identically(self):
        first = dumps_profile(self.make_recorder(), meta={"seed": 7})
        second = dumps_profile(self.make_recorder(), meta={"seed": 7})
        assert first == second
        json.loads(first)  # and it is valid JSON

    def test_write_profile_round_trips(self, tmp_path):
        target = write_profile(
            self.make_recorder(), tmp_path / "profile.json", meta={"a": 1}
        )
        document = json.loads(target.read_text(encoding="utf-8"))
        assert document["meta"] == {"a": 1}
        assert any(e["ph"] == "X" for e in document["traceEvents"])

    def test_stats_table_sections(self):
        table = stats_table(self.make_recorder())
        assert "observability stats" in table
        assert "matrix.build" in table
        assert "advise.calls" in table

    def test_stats_table_empty_recorder(self):
        table = stats_table(Recorder(FakeClock()))
        assert "span" in table
