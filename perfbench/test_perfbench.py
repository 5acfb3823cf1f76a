"""Tests of the benchmark's own helpers: tails, self times, failure counting.

Run with ``python -m pytest perfbench/test_perfbench.py -q`` from the
repository root.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
import random
import statistics
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import run  # noqa: E402
from layers import (  # noqa: E402
    PER_LAYER_UNITS,
    SELF_TIME_METRICS,
    LayerTracer,
    layer_metrics,
    self_times,
)
from measure import Outcome, tail  # noqa: E402
from repro import advise  # noqa: E402
from repro.core.cost_matrix import CostMatrix  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    check_entries,
    check_multipath,
    check_replay_state,
    check_report,
    make_world,
)


def test_tail_leaves_ten_samples_beyond():
    samples = [float(value) for value in range(1, 31)]
    percentile, value = tail(samples)
    assert value == 20.0
    assert sum(1 for sample in samples if sample > value) == 10
    assert percentile == pytest.approx(100.0 * 20 / 30)


def test_tail_falls_back_to_the_median_with_too_few_samples():
    for count in (1, 2, 11, 20, 21):
        samples = [float(value) for value in range(count)]
        assert tail(samples) == (50.0, statistics.median(samples))


def _span(span_id, parent, name, ts, dur, **args):
    return {
        "name": name,
        "ts": ts,
        "dur": dur,
        "tid": 0,
        "depth": 0,
        "args": {"id": span_id, "parent": parent, "request": 0, **args},
    }


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(1, 0, "kernel.compute_rows", 1.0, 1.0),
        _span(2, 3, "search.exhaustive", 5.0, 1.0, evaluated=8),
        _span(3, 0, "cost_matrix.compute", 0.5, 4.0, entries=100),
        _span(0, None, "advisor.advise", 0.0, 10.0),
    ]
    assert self_times(spans) == [1.0, 1.0, 3.0, 5.0]
    metrics, op_seconds = layer_metrics(spans)
    assert op_seconds == 10.0
    assert metrics["kernel.fold_ms"] == 1000.0
    assert metrics["cost_matrix.compute_ms"] == 3000.0
    assert metrics["advisor.self_ms"] == 5000.0
    assert metrics["search.exhaustive_evaluated"] == 8
    assert metrics["cost_matrix.us_per_entry"] == pytest.approx(4e6 / 100)
    accounted = sum(metrics[name] for name in SELF_TIME_METRICS)
    assert accounted == pytest.approx(1000.0 * op_seconds)


def test_unaccounted_span_is_rejected():
    with pytest.raises(ValueError):
        layer_metrics([_span(0, None, "mystery", 0.0, 1.0)])


def test_traced_advise_adds_up_and_restores_the_program():
    stats, load = make_world(random.Random("trace"), 8)
    original = vars(CostMatrix)["compute"]
    tracer = LayerTracer()
    with tracer:
        with tracer.span("advisor.advise"):
            advise(stats, load)
    assert vars(CostMatrix)["compute"] is original
    names = {span["name"] for span in tracer.recorder.spans}
    assert {"cost_matrix.compute", "search.branch_and_bound"} <= names
    metrics, op_seconds = layer_metrics(tracer.recorder.spans)
    accounted = sum(metrics[name] for name in SELF_TIME_METRICS)
    assert accounted == pytest.approx(1000.0 * op_seconds, rel=1e-9)


@pytest.fixture(scope="module")
def report():
    stats, load = make_world(random.Random("oracle"), 8)
    return advise(stats, load)


def test_correct_answer_passes_every_oracle(report):
    assert check_report(report) == []
    matrix = report.matrix
    entries = [
        (start, end, organization, matrix.cost(start, end, organization))
        for start, end in matrix.rows()[:3]
        for organization in matrix.organizations
    ]
    assert check_entries(report.stats, report.load, entries) == []
    assert check_replay_state(report.stats, report.load, report.dynprog) == []


def test_corrupted_answer_counts_as_failed(report):
    corrupted = dataclasses.replace(
        report,
        optimal=dataclasses.replace(
            report.optimal, cost=report.optimal.cost * (1.0 + 1e-6)
        ),
    )
    outcome = Outcome()
    outcome.record(0.01, answer=True)
    outcome.check(check_report(report))
    outcome.record(0.01, answer=True)
    outcome.check(check_report(corrupted))
    assert (outcome.attempted, outcome.failed) == (2, 1)
    assert check_replay_state(report.stats, report.load, corrupted.optimal)


def test_perturbed_matrix_entry_fails_bit_for_bit(report):
    start, end = report.matrix.rows()[0]
    organization = report.matrix.organizations[0]
    value = report.matrix.cost(start, end, organization)
    nudged = [(start, end, organization, math.nextafter(value, math.inf))]
    assert check_entries(report.stats, report.load, nudged)


def test_multipath_over_budget_fails():
    @dataclasses.dataclass
    class Result:
        configurations: list
        total_cost: float = 10.0
        unconstrained_cost: float = 9.0
        storage_pages: float = 120.0
        degradations: tuple = ()

    assert check_multipath(Result([]), [], budget=100.0)
    assert check_multipath(Result([], storage_pages=100.0), [], budget=100.0) == []
    assert check_multipath(Result([], total_cost=8.0), [], budget=100.0)


def test_benchmark_file_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {entry["name"]: entry["why"] for entry in spec["workloads"]} == {
        name: workload.why for name, workload in WORKLOADS.items()
    }
    assert {
        entry["name"]: entry["unit"] for entry in spec["end_to_end"]
    } == run.END_TO_END_UNITS
    assert {
        entry["name"]: entry["unit"] for entry in spec["per_layer"]
    } == PER_LAYER_UNITS
