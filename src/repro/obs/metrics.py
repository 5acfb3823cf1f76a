"""Counters under stable dotted names.

The registry absorbs the counters that previously lived as scattered
ad-hoc attributes (degradation rungs, pool retries, the ``StatArrays``
lowering-cache hits) and re-exports them under one namespace. A metric
is identified by a dotted ``name`` plus optional ``labels``; the
canonical key renders labels sorted
(``resilience.degradations{action=serial_fallback,layer=matrix}``), so
snapshots are deterministic regardless of observation order.

Instruments are plain mutable objects handed out by
:class:`MetricsRegistry` — call sites fetch them once (cheap dict hit)
and bump them directly, which keeps hot loops free of string
formatting. :meth:`MetricsRegistry.snapshot` produces the JSON-ready
view and :meth:`MetricsRegistry.merge` folds a worker's snapshot back
into the parent (counters add), which is how parallel matrix builds
aggregate to one profile. See ``docs/OBSERVABILITY.md`` for the metric
name registry.
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


class MetricsRegistry:
    """Keyed instrument store with deterministic snapshots."""

    __slots__ = ("_counters",)

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}

    def counter(self, name: str, **labels) -> Counter:
        """The counter for ``(name, labels)``, created on first use."""
        key = metric_key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def snapshot(self) -> dict:
        """Deterministic JSON-ready view, counter keys sorted."""
        return {
            "counters": {
                key: self._counters[key].value
                for key in sorted(self._counters)
            },
        }

    def merge(self, snapshot: dict) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters accumulate. This is the worker-aggregation path: each
        pool worker snapshots its private registry and the parent merges
        the deltas in deterministic submission order.
        """
        for key, value in snapshot.get("counters", {}).items():
            counter = self._counters.get(key)
            if counter is None:
                counter = self._counters[key] = Counter()
            counter.value += value
