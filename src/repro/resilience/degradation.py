"""Structured accounting of every degraded decision.

A resilient advisor is allowed to answer from a cheaper rung — serial
instead of parallel, the last-known-good configuration instead of any
fresh search — but it is *never* allowed to do so silently. Every
fallback records a :class:`DegradationEvent` into the
:class:`DegradationReport` threaded through the stack, so tests (and
operators) can assert exactly which rungs answered and why.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class DegradationEvent:
    """One degraded decision: which layer fell back, to what, and why."""

    #: The layer that degraded: ``"matrix"``, ``"search"``, ``"session"``,
    #: ``"multipath"``, ``"trace"`` or ``"checkpoint"``.
    layer: str
    #: What the layer did instead (e.g. ``"serial_fallback"``,
    #: ``"last_known_good"``, ``"dynamic_program:overrun"``,
    #: ``"skip_line"``).
    action: str
    #: Why it had to (e.g. ``"BrokenProcessPool"``, ``"deadline_expired"``).
    reason: str
    #: Free-form structured context (attempt counts, widths, line numbers).
    detail: dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        """One human-readable line for tables and logs."""
        extra = (
            " " + " ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
            if self.detail
            else ""
        )
        return f"[{self.layer}] {self.action}: {self.reason}{extra}"


class DegradationReport:
    """An append-only log of :class:`DegradationEvent` records."""

    def __init__(self) -> None:
        self.events: list[DegradationEvent] = []

    def record(
        self, layer: str, action: str, reason: str, **detail: Any
    ) -> DegradationEvent:
        """Append one event and return it."""
        event = DegradationEvent(
            layer=layer, action=action, reason=reason, detail=detail
        )
        self.events.append(event)
        return event

    def count(self, layer: str | None = None, action: str | None = None) -> int:
        """How many events match the given layer/action filters."""
        return sum(
            1
            for event in self.events
            if (layer is None or event.layer == layer)
            and (action is None or event.action == action)
        )

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        # An *empty* report is still a real report: truthiness follows
        # "did anything degrade", which is what callers branch on.
        return bool(self.events)

    def to_dicts(self) -> list[dict[str, Any]]:
        """JSON-ready event list (for CLI ``--json`` payloads)."""
        return [
            {
                "layer": event.layer,
                "action": event.action,
                "reason": event.reason,
                "detail": dict(event.detail),
            }
            for event in self.events
        ]

    def describe(self) -> str:
        """Multi-line summary; empty string when nothing degraded."""
        return "\n".join(event.describe() for event in self.events)
