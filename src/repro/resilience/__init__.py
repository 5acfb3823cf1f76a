"""`repro.resilience`: the robustness layer of the advising stack.

Production index advising has to survive the infrastructure it runs on:
worker pools break, traces arrive corrupted, exact searches overrun
their latency budget, and processes get killed mid-stream. This package
collects the machinery that keeps the advisor answering anyway —

* :mod:`~repro.resilience.deadline` — :class:`Deadline` wall-clock
  budgets checked cooperatively inside every search strategy;
* :mod:`~repro.resilience.degradation` — the structured
  :class:`DegradationReport` every fallback must record into, so nothing
  degrades silently;
* :mod:`~repro.resilience.degrade` — the exact → last-known-good →
  overrun-DP ladder behind deadline-bounded ``advise``;
* :mod:`~repro.resilience.checkpoint` — versioned JSONL snapshots of
  :class:`~repro.trace.ContinuousAdvisor` /
  :class:`~repro.whatif.AdvisorSession` state with bit-identical resume;
* :mod:`~repro.resilience.faults` — the seeded fault-injection harness
  behind the chaos test suite.

The light modules (deadline, degradation) import eagerly; the heavy
ones (degrade, checkpoint, faults) load lazily via :pep:`562`: they
import the trace, whatif and search layers, which import this package,
so loading them eagerly would be an import cycle.
"""

from __future__ import annotations

from repro.errors import CheckpointError, DeadlineExceeded, ResilienceError
from repro.resilience.deadline import Deadline
from repro.resilience.degradation import DegradationEvent, DegradationReport

__all__ = [
    "CheckpointError",
    "Deadline",
    "DeadlineExceeded",
    "DegradationEvent",
    "DegradationReport",
    "FakeClock",
    "FaultInjector",
    "ResilienceError",
    "degraded_search",
    "restore_advisor",
    "restore_session",
    "save_advisor",
    "save_session",
]

# Lazily resolved: these modules import the trace/whatif/search layers,
# which in turn import this package.
_LAZY = {
    "degraded_search": ("repro.resilience.degrade", "degraded_search"),
    "save_advisor": ("repro.resilience.checkpoint", "save_advisor"),
    "restore_advisor": ("repro.resilience.checkpoint", "restore_advisor"),
    "save_session": ("repro.resilience.checkpoint", "save_session"),
    "restore_session": ("repro.resilience.checkpoint", "restore_session"),
    "save_multipath": ("repro.resilience.checkpoint", "save_multipath"),
    "restore_multipath": ("repro.resilience.checkpoint", "restore_multipath"),
    "FaultInjector": ("repro.resilience.faults", "FaultInjector"),
    "FakeClock": ("repro.resilience.faults", "FakeClock"),
}


def __getattr__(name: str):
    """:pep:`562` lazy loading for the heavy submodule symbols."""
    try:
        module_name, attribute = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), attribute)
