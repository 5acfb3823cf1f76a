"""Hierarchical span recording with a zero-overhead disabled mode.

Two recorder types share one duck-typed surface:

* :class:`Recorder` — the real thing: ``span(name)`` context managers
  push/pop a depth stack and append ``(name, ts, dur, tid, depth,
  args)`` records; ``counter`` delegates to an owned
  :class:`~repro.obs.metrics.MetricsRegistry`; ``absorb`` merges a
  worker's serialized profile under a distinct ``tid``.
* :class:`NullRecorder` — the default everywhere: every method returns a
  shared singleton whose operations are no-ops, so instrumented call
  sites cost one attribute lookup and one call when recording is off
  (the ≤2 % bench_kernel smoke-path budget guarded by
  ``benchmarks/bench_obs.py``).

Instrumentation is deliberately coarse: spans wrap whole phases (a
matrix build, a search, a replay window), never per-row or per-event
work, and hot loops bump pre-fetched metric instruments instead of
calling into the recorder. Timing goes through the injectable
``clock`` seam (:mod:`repro.obs.clock`), so
:class:`repro.resilience.FakeClock` drives byte-identical span tests.
"""

from __future__ import annotations

from repro.obs.clock import Clock, default_clock
from repro.obs.metrics import Counter, MetricsRegistry


class _NullSpan:
    """Shared no-op context manager returned by :class:`NullRecorder`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def note(self, **attrs) -> None:
        """Discard span attributes."""


class _NullInstrument:
    """Shared no-op counter."""

    __slots__ = ()

    def add(self, amount: int = 1) -> None:
        """Discard a counter increment."""


_NULL_SPAN = _NullSpan()
_NULL_INSTRUMENT = _NullInstrument()


class NullRecorder:
    """The disabled recorder: every operation is a shared no-op."""

    __slots__ = ()
    enabled = False

    def span(self, name: str, **attrs) -> _NullSpan:
        """A no-op span."""
        return _NULL_SPAN

    def counter(self, name: str, **labels) -> _NullInstrument:
        """A no-op counter."""
        return _NULL_INSTRUMENT

    def absorb(self, profile: dict, tid: int = 0) -> None:
        """Discard a worker profile."""

    def profile(self) -> dict:
        """An empty profile (spans plus an empty metrics snapshot)."""
        return {"spans": [], "metrics": MetricsRegistry().snapshot()}


#: The process-wide disabled recorder; ``recorder=None`` resolves here.
NULL_RECORDER = NullRecorder()


def resolve_recorder(recorder) -> "Recorder | NullRecorder":
    """Map the conventional ``recorder=None`` default to the null one."""
    return NULL_RECORDER if recorder is None else recorder


class _Span:
    """An open span: records itself on ``__exit__`` (exceptions too)."""

    __slots__ = ("_recorder", "name", "attrs", "_start", "_depth")

    def __init__(self, recorder: "Recorder", name: str, attrs: dict) -> None:
        self._recorder = recorder
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_Span":
        recorder = self._recorder
        self._depth = recorder._depth
        recorder._depth += 1
        self._start = recorder._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        recorder = self._recorder
        end = recorder._clock()
        recorder._depth -= 1
        recorder.spans.append(
            {
                "name": self.name,
                "ts": self._start - recorder._epoch,
                "dur": end - self._start,
                "tid": recorder.tid,
                "depth": self._depth,
                "args": self.attrs,
            }
        )
        return False

    def note(self, **attrs) -> None:
        """Attach attributes discovered while the span is open."""
        self.attrs.update(attrs)


class Recorder:
    """Collects spans and metrics for one advise pipeline run.

    ``clock`` is any zero-argument callable returning seconds
    (:func:`repro.obs.clock.default_clock` when omitted;
    :class:`repro.resilience.FakeClock` in deterministic tests). Span
    timestamps are stored relative to the recorder's construction time,
    so a ``FakeClock``-driven run is reproducible byte for byte.

    ``tid`` names the logical thread spans are attributed to: ``0`` is
    the main process, workers get ``1..n`` assigned by the parent in
    submission order when their profiles are :meth:`absorb`-ed.
    """

    __slots__ = ("_clock", "_epoch", "pid", "tid", "metrics", "spans", "_depth")

    enabled = True

    def __init__(
        self, clock: Clock | None = None, *, pid: int = 0, tid: int = 0
    ) -> None:
        self._clock = clock if clock is not None else default_clock
        self._epoch = self._clock()
        self.pid = pid
        self.tid = tid
        self.metrics = MetricsRegistry()
        self.spans: list[dict] = []
        self._depth = 0

    def span(self, name: str, **attrs) -> _Span:
        """Open a span; use as ``with recorder.span("matrix.build"):``."""
        return _Span(self, name, attrs)

    def counter(self, name: str, **labels) -> Counter:
        """The counter for ``(name, labels)`` from the owned registry."""
        return self.metrics.counter(name, **labels)

    def absorb(self, profile: dict, tid: int = 0) -> None:
        """Merge a worker's :meth:`profile` under logical thread ``tid``.

        Worker span timestamps stay relative to the worker's own epoch
        (each ``tid`` renders as its own thread lane, so within-lane
        nesting stays consistent); metric deltas accumulate via
        :meth:`~repro.obs.metrics.MetricsRegistry.merge`.
        """
        if not profile:
            return
        for span in profile.get("spans", ()):
            self.spans.append({**span, "tid": tid})
        self.metrics.merge(profile.get("metrics", {}))

    def profile(self) -> dict:
        """The serializable profile: span list plus metrics snapshot."""
        return {"spans": list(self.spans), "metrics": self.metrics.snapshot()}
