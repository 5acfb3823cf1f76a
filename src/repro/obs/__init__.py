"""Unified observability: tracing spans, metrics, profile exporters.

The instrumentation subsystem every pipeline layer reports into. An
explicit :class:`Recorder` threads through ``advise`` →
``CostMatrix.compute/recompute`` → the search strategies →
``optimize_multipath`` → the what-if sessions → ``ContinuousAdvisor`` →
``backend.replay_trace``; with the default :data:`NULL_RECORDER`
everything is a no-op (≤2 % overhead on the bench_kernel smoke path,
guarded by ``benchmarks/bench_obs.py`` in CI). Parallel matrix builds
merge worker span trees and metric deltas into one profile, and
:mod:`repro.obs.export` writes it as a Perfetto-loadable Chrome trace,
a JSON metrics snapshot, or a plain-text table (CLI ``--profile`` /
``--stats``). Span taxonomy and metric names: ``docs/OBSERVABILITY.md``.
"""

from repro.obs.clock import Clock, default_clock
from repro.obs.export import (
    chrome_trace_events,
    dumps_profile,
    profile_document,
    stats_table,
    write_profile,
)
from repro.obs.metrics import Counter, MetricsRegistry, metric_key
from repro.obs.recorder import (
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    resolve_recorder,
)

__all__ = [
    "Clock",
    "Counter",
    "MetricsRegistry",
    "NULL_RECORDER",
    "NullRecorder",
    "Recorder",
    "chrome_trace_events",
    "default_clock",
    "dumps_profile",
    "metric_key",
    "profile_document",
    "resolve_recorder",
    "stats_table",
    "write_profile",
]
