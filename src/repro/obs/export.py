"""Profile exporters: Chrome trace events, JSON snapshot, ASCII table.

One :func:`profile_document` serves every consumer: its ``traceEvents``
array is the Chrome trace-event format (load the file directly in
Perfetto or ``chrome://tracing`` — extra top-level keys are ignored by
both), ``metrics`` is the registry snapshot, and ``meta`` carries
run context supplied by the caller. Span timestamps/durations are
emitted in microseconds as ``ph: "X"`` complete events with
``pid``/``tid``; logical threads get ``ph: "M"`` metadata names
(``main``, ``worker-1`` …) so merged parallel builds render as separate
lanes. :func:`stats_table` renders the same data as the plain-text
table behind the CLI ``--stats`` flag.

All output is deterministic for a given recorder state (sorted keys,
fixed rounding): under a :class:`repro.resilience.FakeClock` two
identical runs serialize byte for byte, which
``tests/test_obs.py`` pins.
"""

from __future__ import annotations

import json
import pathlib

from repro.reporting.tables import ascii_table


def _thread_name(tid: int) -> str:
    return "main" if tid == 0 else f"worker-{tid}"


def chrome_trace_events(recorder) -> list[dict]:
    """The recorder's spans as Chrome trace-event dicts.

    Emits one ``ph: "M"`` process-name event, one thread-name event per
    logical thread seen, then one ``ph: "X"`` complete event per span
    with ``ts``/``dur`` in microseconds and the span attributes (plus
    nesting ``depth``) under ``args``.
    """
    pid = getattr(recorder, "pid", 0)
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": "repro"},
        }
    ]
    tids = sorted({span["tid"] for span in recorder.spans} | {0})
    for tid in tids:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": _thread_name(tid)},
            }
        )
    for span in recorder.spans:
        events.append(
            {
                "name": span["name"],
                "cat": span["name"].split(".", 1)[0],
                "ph": "X",
                "ts": round(span["ts"] * 1e6, 3),
                "dur": round(span["dur"] * 1e6, 3),
                "pid": pid,
                "tid": span["tid"],
                "args": {**span["args"], "depth": span["depth"]},
            }
        )
    return events


def profile_document(recorder, meta: dict | None = None) -> dict:
    """The combined profile: Chrome trace + metrics snapshot + meta."""
    return {
        "traceEvents": chrome_trace_events(recorder),
        "displayTimeUnit": "ms",
        "metrics": recorder.profile()["metrics"],
        "meta": dict(meta or {}),
    }


def dumps_profile(recorder, meta: dict | None = None) -> str:
    """Serialize :func:`profile_document` deterministically."""
    return (
        json.dumps(profile_document(recorder, meta), indent=2, sort_keys=True)
        + "\n"
    )


def write_profile(recorder, path, meta: dict | None = None) -> pathlib.Path:
    """Write the profile JSON to ``path`` and return it."""
    target = pathlib.Path(path)
    target.write_text(dumps_profile(recorder, meta), encoding="utf-8")
    return target


def _format_value(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.4f}"
    return str(int(value)) if isinstance(value, float) else str(value)


def stats_table(recorder, title: str = "observability stats") -> str:
    """Spans aggregated by name plus every metric, as ASCII tables.

    The span section shows call counts and total milliseconds per span
    name (sorted by total time, descending); the counter section lists
    every counter under its canonical key. This is what the CLI
    ``--stats`` flag prints.
    """
    by_name: dict[str, list[float]] = {}
    for span in recorder.spans:
        entry = by_name.setdefault(span["name"], [0, 0.0])
        entry[0] += 1
        entry[1] += span["dur"]
    span_rows = [
        [name, count, f"{total * 1000.0:.3f}"]
        for name, (count, total) in sorted(
            by_name.items(), key=lambda item: (-item[1][1], item[0])
        )
    ]
    sections = [
        ascii_table(["span", "calls", "total ms"], span_rows, title=title)
    ]
    snapshot = recorder.profile()["metrics"]
    counter_rows = [
        [key, _format_value(value)]
        for key, value in snapshot["counters"].items()
    ]
    if counter_rows:
        sections.append(
            ascii_table(["counter", "value"], counter_rows, title="counters")
        )
    return "\n\n".join(sections)
