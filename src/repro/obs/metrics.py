"""Counters, gauges and histograms under stable dotted names.

The registry absorbs the counters that previously lived as scattered
ad-hoc attributes (``RecomputeReport.kernel_slice_rows``,
``MultiPathSession.joint_reuses``, degradation rungs, pool retries, the
``StatArrays`` lowering-cache hits) and re-exports them under one
namespace. A metric is identified by a dotted ``name`` plus optional
``labels``; the canonical key renders labels sorted
(``resilience.degradations{action=serial_fallback,layer=matrix}``), so
snapshots are deterministic regardless of observation order.

Instruments are plain mutable objects handed out by
:class:`MetricsRegistry` — call sites fetch them once (cheap dict hit)
and bump them directly, which keeps hot loops free of string
formatting. :meth:`MetricsRegistry.snapshot` produces the JSON-ready
view and :meth:`MetricsRegistry.merge` folds a worker's snapshot back
into the parent (counters and histograms add, gauges last-write-wins),
which is how parallel matrix builds aggregate to one profile. See
``docs/OBSERVABILITY.md`` for the metric name registry.
"""

from __future__ import annotations


def metric_key(name: str, labels: dict) -> str:
    """Canonical string key: ``name`` plus sorted ``{k=v}`` labels."""
    if not labels:
        return name
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def add(self, amount: int = 1) -> None:
        """Increase the counter by ``amount``."""
        self.value += amount


class Gauge:
    """A point-in-time value; the last ``set`` wins."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = value


class Histogram:
    """Count/sum/min/max over observed samples (no buckets needed yet)."""

    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def observe(self, value: float) -> None:
        """Fold one sample into the summary."""
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def summary(self) -> dict:
        """JSON-ready view (``min``/``max`` omitted while empty)."""
        if self.count == 0:
            return {"count": 0, "sum": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
        }


class MetricsRegistry:
    """Keyed instrument store with deterministic snapshots."""

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str, **labels) -> Counter:
        """The counter for ``(name, labels)``, created on first use."""
        key = metric_key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels) -> Gauge:
        """The gauge for ``(name, labels)``, created on first use."""
        key = metric_key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(self, name: str, **labels) -> Histogram:
        """The histogram for ``(name, labels)``, created on first use."""
        key = metric_key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram()
        return instrument

    def snapshot(self) -> dict:
        """Deterministic JSON-ready view, keys sorted within each kind."""
        return {
            "counters": {
                key: self._counters[key].value
                for key in sorted(self._counters)
            },
            "gauges": {
                key: self._gauges[key].value for key in sorted(self._gauges)
            },
            "histograms": {
                key: self._histograms[key].summary()
                for key in sorted(self._histograms)
            },
        }

    def merge(self, snapshot: dict) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters and histograms accumulate; gauges take the incoming
        value (last write wins). This is the worker-aggregation path:
        each pool worker snapshots its private registry and the parent
        merges the deltas in deterministic submission order.
        """
        for key, value in snapshot.get("counters", {}).items():
            counter = self._counters.get(key)
            if counter is None:
                counter = self._counters[key] = Counter()
            counter.value += value
        for key, value in snapshot.get("gauges", {}).items():
            gauge = self._gauges.get(key)
            if gauge is None:
                gauge = self._gauges[key] = Gauge()
            gauge.value = value
        for key, summary in snapshot.get("histograms", {}).items():
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = self._histograms[key] = Histogram()
            count = summary.get("count", 0)
            if count == 0:
                continue
            histogram.count += count
            histogram.total += summary.get("sum", 0.0)
            if summary["min"] < histogram.minimum:
                histogram.minimum = summary["min"]
            if summary["max"] > histogram.maximum:
                histogram.maximum = summary["max"]
