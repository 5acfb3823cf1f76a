"""Worker-pool failure paths: the serial fallback is loud and lossless.

The parallel fan-out in :class:`~repro.core.cost_matrix.CostMatrix` may
fail for real reasons (a worker OOM-killed, an OS refusing to fork, a
spawn-only platform hitting an unpicklable payload). The contract under
test: the fan-out is tried twice with one short pause, the eventual serial
fallback produces a **byte-identical** matrix, and the cause is reported
three ways — :attr:`~repro.core.cost_matrix.CostMatrix.parallel_fallback_reason`,
a ``RuntimeWarning``, and a structured
:class:`~repro.resilience.DegradationReport` event. Never silently.
"""

from __future__ import annotations

import multiprocessing
import pickle

import pytest
from conftest import assert_same_bits

import repro.core.cost_matrix as cost_matrix_module
from repro.core.cost_matrix import CostMatrix
from repro.resilience import DegradationReport
from repro.resilience.faults import FaultInjector
from repro.whatif import AdvisorSession, Perturbation
from repro.workload.load import LoadDistribution

from test_resilience_checkpoint import make_world


@pytest.fixture
def patched_sleep():
    """Capture the pause between pool attempts instead of sleeping."""
    naps: list[float] = []
    original = cost_matrix_module._sleep
    cost_matrix_module._sleep = naps.append
    try:
        yield naps
    finally:
        cost_matrix_module._sleep = original


@pytest.fixture
def spawn_start_method():
    """Start worker processes with ``spawn``, as macOS and Windows do."""
    original = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("spawn", force=True)
    try:
        yield
    finally:
        multiprocessing.set_start_method(original, force=True)


@pytest.fixture
def raise_from_pool():
    """Patch the pool seam to always raise a given exception."""
    original = cost_matrix_module._run_pool_once

    def patch(error: Exception):
        def failing(*_arguments):
            raise error

        cost_matrix_module._run_pool_once = failing

    try:
        yield patch
    finally:
        cost_matrix_module._run_pool_once = original


class TestSerialFallback:
    def test_broken_pool_falls_back_byte_identically(self, patched_sleep):
        stats, load = make_world()
        serial = CostMatrix.compute(stats, load, workers=0)
        report = DegradationReport()
        with FaultInjector(seed=0).broken_pool(times=10):
            with pytest.warns(RuntimeWarning, match="fell back to serial"):
                fallen = CostMatrix.compute(
                    stats, load, workers=2, degradation=report
                )
        assert_same_bits(fallen, serial)
        reason = fallen.parallel_fallback_reason
        assert reason is not None
        assert "BrokenProcessPool" in reason
        assert "after 2 attempts" in reason
        assert patched_sleep == [0.05]  # one backoff between two attempts

    def test_fallback_is_recorded_structurally(self):
        stats, load = make_world()
        report = DegradationReport()
        with FaultInjector(seed=0).broken_pool(times=10):
            with pytest.warns(RuntimeWarning):
                CostMatrix.compute(stats, load, workers=2, degradation=report)
        assert report.count(layer="matrix", action="serial_fallback") == 1
        event = report.events[-1]
        assert event.detail["workers"] == 2
        assert event.detail["rows"] == 10  # length-4 path: 4*5/2 rows

    def test_successful_pool_reports_no_fallback(self):
        stats, load = make_world()
        matrix = CostMatrix.compute(stats, load, workers=2)
        assert matrix.parallel_fallback_reason is None

    def test_os_refusing_to_fork(self, raise_from_pool):
        stats, load = make_world()
        raise_from_pool(OSError("cannot allocate memory"))
        serial = CostMatrix.compute(stats, load, workers=0)
        with pytest.warns(RuntimeWarning):
            fallen = CostMatrix.compute(stats, load, workers=2)
        assert_same_bits(fallen, serial)
        assert "OSError: cannot allocate memory" in (
            fallen.parallel_fallback_reason or ""
        )

    def test_spawn_only_platform_pickling_failure(
        self, raise_from_pool, spawn_start_method
    ):
        """Under ``spawn`` the inputs are pickled, and an unpicklable
        one falls back like any other pool failure."""
        raise_from_pool(pickle.PicklingError("cannot pickle local object"))
        stats, load = make_world()
        serial = CostMatrix.compute(stats, load, workers=0)
        with pytest.warns(RuntimeWarning):
            fallen = CostMatrix.compute(stats, load, workers=2)
        assert_same_bits(fallen, serial)
        assert "PicklingError" in (fallen.parallel_fallback_reason or "")

    def test_spawn_only_platform_still_parallelizes(self, spawn_start_method):
        """A real ``spawn`` pool, whose workers lower their own inputs,
        is bit-identical to serial."""
        stats, load = make_world()
        parallel = CostMatrix.compute(stats, load, workers=2)
        serial = CostMatrix.compute(stats, load, workers=0)
        assert_same_bits(parallel, serial)
        assert parallel.parallel_fallback_reason is None

    def test_unexpected_exceptions_propagate(self, raise_from_pool):
        """Only pool failures fall back; a bug in the caller's inputs or
        the kernel surfaces instead of hiding behind a serial rebuild."""
        raise_from_pool(ValueError("not a pool failure"))
        stats, load = make_world()
        with pytest.raises(ValueError, match="not a pool failure"):
            CostMatrix.compute(stats, load, workers=2)


class TestRetryPolicyPlumbing:
    def test_success_on_first_attempt_never_sleeps(self, patched_sleep):
        stats, load = make_world()
        matrix = CostMatrix.compute(stats, load, workers=2)
        assert matrix.parallel_fallback_reason is None
        assert patched_sleep == []

    def test_second_attempt_success_needs_no_fallback(self, patched_sleep):
        stats, load = make_world()
        with FaultInjector(seed=0).broken_pool(times=1) as crashes:
            matrix = CostMatrix.compute(stats, load, workers=2)
        assert crashes[0] == 1
        assert matrix.parallel_fallback_reason is None
        assert patched_sleep == [0.05]


class TestRecomputeFallback:
    def test_parallel_recompute_falls_back_byte_identically(self):
        stats, load = make_world()
        matrix = CostMatrix.compute(stats, load)
        triplets = dict(load.items())
        triplets["L0"] = triplets["L0"].scaled(4.0)
        scaled = LoadDistribution(load.path, triplets)
        clean = matrix.recompute(load=scaled, workers=0)
        report = DegradationReport()
        with FaultInjector(seed=0).broken_pool(times=10):
            with pytest.warns(RuntimeWarning):
                fallen = matrix.recompute(
                    load=scaled, workers=2, degradation=report
                )
        assert_same_bits(fallen, clean)
        assert "BrokenProcessPool" in (fallen.parallel_fallback_reason or "")
        assert report.count(layer="matrix", action="serial_fallback") == 1

    def test_session_surfaces_the_fallback(self):
        """A parallel session keeps answering through pool crashes, and
        its degradation report says so."""
        stats, load = make_world()
        with FaultInjector(seed=0).broken_pool(times=10):
            with pytest.warns(RuntimeWarning):
                session = AdvisorSession(stats, load, workers=2)
                session.advise()
        reference = AdvisorSession(stats, load).advise()
        degraded_matrix = session.advise()
        assert degraded_matrix.cost == reference.cost
        assert degraded_matrix.configuration == reference.configuration
        assert session.degradation.count(
            layer="matrix", action="serial_fallback"
        ) >= 1

    def test_session_perturbation_survives_pool_crash(self):
        stats, load = make_world()
        chaotic = AdvisorSession(stats, load, workers=2)
        steady = AdvisorSession(stats, load)
        step = Perturbation("L1", "insert", "scale", 3.0)
        with FaultInjector(seed=0).broken_pool(times=100):
            with pytest.warns(RuntimeWarning):
                chaotic.perturb(step)
                crashed = chaotic.advise()
        steady.perturb(step)
        expected = steady.advise()
        assert crashed.cost == expected.cost
        assert crashed.configuration == expected.configuration
