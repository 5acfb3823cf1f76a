"""Versioned JSONL checkpoints with bit-identical resume.

A :class:`~repro.trace.ContinuousAdvisor` is a long-lived process: it
folds an unbounded operation stream through windowed estimates, drift
decisions and incremental search state. When that process dies — OOM
kill, deploy, power loss — everything it learned dies with it unless the
state is on disk. This module snapshots the full advising stack
(:func:`save_advisor`) and resurrects it (:func:`restore_advisor`) such
that the resumed process emits a :class:`~repro.trace.ReplayStep`
timeline **bit-identical** to one that was never interrupted; the
Hypothesis property in ``tests/test_resilience_checkpoint.py`` pins it
for every seeded trace regime and an arbitrary cut point.

Format
------
One checkpoint is a JSONL file:

* a header record — ``{"format": "repro-checkpoint", "version": 1,
  "kind": ...}`` — versioned so future layouts can evolve;
* one record per state section (options, session, aggregator, detector,
  pending perturbations, degradation log, one per replay step);
* a trailer — ``{"section": "end", "records": N, "digest": sha256}`` —
  whose digest covers every preceding byte, so a torn or tampered file
  fails :class:`~repro.errors.CheckpointError` instead of resuming
  silently wrong.

Floats ride through JSON's exact ``repr`` round-trip for doubles, which
is what makes value-level bit-identity possible. Writes are atomic
(temp file + ``os.replace`` via the patchable :func:`_write_payload`
seam, which the fault harness tears mid-write in tests), so a crash
*during* checkpointing leaves the previous checkpoint intact.

Restore rebuilds live objects from the caller-provided baseline inputs
(the same ``stats``/``load`` the original process was constructed with —
paths and cost-model configs are code-level objects and are not
serialized) plus the stored values, then *primes* the session: one
``advise()`` fills the incremental search tables, the primed answer is
verified against the stored one, and the stored result object is put
back so subsequent cached answers serialize identically to the
uninterrupted run.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import time
from typing import Any

from repro.costmodel.params import ClassStats, PathStatistics
from repro.errors import CheckpointError
from repro.resilience.degradation import DegradationReport
from repro.search import SearchResult
from repro.trace.continuous import ContinuousAdvisor, ReplayStep
from repro.trace.drift import DriftDetector
from repro.trace.events import TraceEvent
from repro.trace.window import WindowAggregator
from repro.whatif.perturbation import Perturbation
from repro.whatif.session import AdvisorSession, MultiPathSession
from repro.workload.load import LoadDistribution, LoadTriplet

#: The on-disk format marker every checkpoint starts with.
FORMAT = "repro-checkpoint"

#: Current layout version; bumped on incompatible changes.
VERSION = 1


# ----------------------------------------------------------------------
# value <-> JSON helpers
# ----------------------------------------------------------------------
def _stats_values(stats: PathStatistics) -> dict[str, dict[str, float]]:
    """Per-class ``{objects, distinct, fanout}`` of a statistics object."""
    values: dict[str, dict[str, float]] = {}
    for position in range(1, stats.length + 1):
        for member in stats.members(position):
            current = stats.stats_of(member)
            values[member] = {
                "objects": current.objects,
                "distinct": current.distinct,
                "fanout": current.fanout,
            }
    return values


def _load_values(load: LoadDistribution) -> dict[str, list[float]]:
    """Per-class ``[query, insert, delete]`` of a load distribution."""
    return {
        name: [triplet.query, triplet.insert, triplet.delete]
        for name, triplet in load.items()
    }


def _rebuild_stats(
    template: PathStatistics, values: dict[str, dict[str, float]]
) -> PathStatistics:
    """Statistics with the template's path/config and the stored values."""
    per_class = {
        name: ClassStats(
            objects=fields["objects"],
            distinct=fields["distinct"],
            fanout=fields["fanout"],
        )
        for name, fields in values.items()
    }
    return PathStatistics(template.path, per_class, template.config)


def _rebuild_load(
    template: LoadDistribution, values: dict[str, list[float]]
) -> LoadDistribution:
    """A load with the template's path and the stored triplets."""
    triplets = {
        name: LoadTriplet(query=components[0], insert=components[1], delete=components[2])
        for name, components in values.items()
    }
    return LoadDistribution(template.path, triplets)


# ----------------------------------------------------------------------
# file I/O
# ----------------------------------------------------------------------
def _write_payload(path: str | pathlib.Path, payload: str) -> None:
    """Atomically replace ``path`` with ``payload``.

    The write goes to a sibling temp file which is fsynced and then
    ``os.replace``-d over the target, so a crash mid-write can tear the
    temp file but never the checkpoint itself. Module-level on purpose:
    the fault harness patches this seam to simulate torn writes.
    """
    temporary = f"{path}.tmp"
    with open(temporary, "w", encoding="utf-8") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temporary, path)


def _serialize(kind: str, records: list[dict[str, Any]]) -> str:
    """Header + section records + digest trailer, as one JSONL payload."""
    lines = [
        json.dumps(
            {"format": FORMAT, "version": VERSION, "kind": kind},
            separators=(",", ":"),
        )
    ]
    lines.extend(
        json.dumps(record, separators=(",", ":")) for record in records
    )
    body = "\n".join(lines) + "\n"
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    trailer = json.dumps(
        {"section": "end", "records": len(records), "digest": digest},
        separators=(",", ":"),
    )
    return body + trailer + "\n"


def _load_records(
    path: str | pathlib.Path, expected_kind: str
) -> list[dict[str, Any]]:
    """Parse + integrity-check a checkpoint; returns its section records."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = handle.read()
    except OSError as error:
        raise CheckpointError(f"cannot read checkpoint {path}: {error}") from None
    lines = raw.splitlines()
    if len(lines) < 2:
        raise CheckpointError(
            f"checkpoint {path} is truncated: no trailer record"
        )
    try:
        trailer = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise CheckpointError(
            f"checkpoint {path} is torn: trailer is not valid JSON"
        ) from None
    if not isinstance(trailer, dict) or trailer.get("section") != "end":
        raise CheckpointError(
            f"checkpoint {path} is torn: last record is not the trailer"
        )
    body = "\n".join(lines[:-1]) + "\n"
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    if digest != trailer.get("digest"):
        raise CheckpointError(
            f"checkpoint {path} failed its integrity check "
            f"(stored digest does not match the file contents)"
        )
    try:
        header = json.loads(lines[0])
        records = [json.loads(line) for line in lines[1:-1]]
    except json.JSONDecodeError as error:
        raise CheckpointError(
            f"checkpoint {path} contains invalid JSON: {error.msg}"
        ) from None
    if header.get("format") != FORMAT:
        raise CheckpointError(
            f"{path} is not a repro checkpoint (format marker missing)"
        )
    if header.get("version") != VERSION:
        raise CheckpointError(
            f"checkpoint {path} has unsupported version "
            f"{header.get('version')!r} (this build reads {VERSION})"
        )
    if header.get("kind") != expected_kind:
        raise CheckpointError(
            f"checkpoint {path} holds a {header.get('kind')!r} snapshot, "
            f"not {expected_kind!r}"
        )
    if trailer.get("records") != len(records):
        raise CheckpointError(
            f"checkpoint {path} is truncated: trailer promises "
            f"{trailer.get('records')} records, found {len(records)}"
        )
    return records


def _section(
    records: list[dict[str, Any]], name: str, path: str | pathlib.Path
) -> dict[str, Any]:
    for record in records:
        if record.get("section") == name:
            return record
    raise CheckpointError(f"checkpoint {path} is missing its {name!r} section")


# ----------------------------------------------------------------------
# session snapshots
# ----------------------------------------------------------------------
def _session_record(session: AdvisorSession) -> dict[str, Any]:
    last = session._result
    return {
        "section": "session",
        "strategy": session.strategy,
        "stats": _stats_values(session.stats),
        "load": _load_values(session.load),
        "version": session.version,
        "applied_steps": session.applied_steps,
        "batched_steps": session.batched_steps,
        "pending_rows": sorted(list(row) for row in session._pending),
        "pending_full": session._pending_full,
        "last_result": None if last is None else last.to_dict(),
    }


def _restore_session_state(
    record: dict[str, Any],
    stats_template: PathStatistics,
    load_template: LoadDistribution,
    path: str | pathlib.Path,
    degradation: DegradationReport | None,
    session_options: dict[str, Any],
) -> AdvisorSession:
    """Rebuild + prime one session from its checkpoint record.

    The fresh matrix is computed from the stored *current* inputs (the
    bit-identity of ``CostMatrix.compute`` across worker counts and
    against ``CostMatrix.recompute`` makes it equal to the incrementally
    recomputed one that died with the process), then one priming ``advise()`` fills the search
    tables. The primed answer doubles as verification: when the stored
    last result was exact and nothing was pending, it must match cost
    and configuration exactly — a mismatch means the caller supplied
    baseline inputs that are not the ones the checkpoint was taken
    against. Finally the stored result object replaces the primed one,
    so cached-answer steps after resume serialize byte-for-byte like the
    uninterrupted run (work counters such as ``rows_inspected`` would
    otherwise betray the restart).
    """
    strategy = session_options.get("strategy", "incremental_dynamic_program")
    if record["strategy"] != strategy:
        raise CheckpointError(
            f"checkpoint {path} was taken under strategy "
            f"{record['strategy']!r}; restoring under {strategy!r} would "
            f"not resume bit-identically"
        )
    try:
        current_stats = _rebuild_stats(stats_template, record["stats"])
        current_load = _rebuild_load(load_template, record["load"])
    except Exception as error:
        raise CheckpointError(
            f"checkpoint {path} does not describe the provided path: {error}"
        ) from None
    session = AdvisorSession(
        current_stats,
        current_load,
        degradation=degradation,
        **session_options,
    )
    primed = session.advise()
    stored = record["last_result"]
    if stored is not None:
        result = SearchResult.from_dict(stored)
        exact = not result.extras.get("degraded", False)
        clean = not record["pending_rows"] and not record["pending_full"]
        if exact and clean and (
            primed.cost != result.cost
            or primed.configuration != result.configuration
        ):
            raise CheckpointError(
                f"checkpoint {path} does not match the provided baseline "
                f"inputs: primed cost {primed.cost!r} vs stored "
                f"{result.cost!r}"
            )
        session._result = result
    session._pending = {tuple(row) for row in record["pending_rows"]}
    session._pending_full = record["pending_full"]
    session.version = record["version"]
    session.applied_steps = record["applied_steps"]
    session.batched_steps = record["batched_steps"]
    return session


# ----------------------------------------------------------------------
# AdvisorSession checkpoints
# ----------------------------------------------------------------------
def save_session(
    session: AdvisorSession, path: str | pathlib.Path
) -> int:
    """Checkpoint one :class:`~repro.whatif.AdvisorSession`; returns bytes written."""
    records = [
        _session_record(session),
        {
            "section": "degradation",
            "events": session.degradation.to_dicts(),
        },
    ]
    payload = _serialize("advisor_session", records)
    _write_payload(path, payload)
    return len(payload.encode("utf-8"))


def restore_session(
    path: str | pathlib.Path,
    stats: PathStatistics,
    load: LoadDistribution,
    *,
    degradation: DegradationReport | None = None,
    **session_options,
) -> AdvisorSession:
    """Resurrect a checkpointed session.

    ``stats``/``load`` are templates providing the path and cost-model
    config (any pair describing the same path works — the *values* come
    from the checkpoint); ``session_options`` must match the original
    construction (``strategy`` is verified). The restored session's
    degradation log starts from the checkpointed events.
    """
    records = _load_records(path, "advisor_session")
    report = degradation if degradation is not None else DegradationReport()
    for event in _section(records, "degradation", path)["events"]:
        report.record(
            event["layer"], event["action"], event["reason"], **event["detail"]
        )
    return _restore_session_state(
        _section(records, "session", path),
        stats,
        load,
        path,
        report,
        session_options,
    )


# ----------------------------------------------------------------------
# ContinuousAdvisor checkpoints
# ----------------------------------------------------------------------
def save_advisor(
    advisor: ContinuousAdvisor, path: str | pathlib.Path
) -> int:
    """Checkpoint a :class:`~repro.trace.ContinuousAdvisor` mid-stream.

    Callable at any point of the replay — between events, at window
    boundaries, after the final flush — and captures everything the
    resumed process needs: windowing options, the session (current
    inputs, counters, last result, pending dirty rows), the aggregator's
    trailing event window and cumulative balance, the drift detector's
    reference and streak, the pending perturbation batch, the
    degradation log, and the full step timeline. Returns bytes written.
    """
    aggregator = advisor.aggregator
    detector = advisor.detector
    records: list[dict[str, Any]] = [
        {
            "section": "options",
            "window": aggregator.window,
            "slide": aggregator.slide,
            "window_seconds": aggregator.window_seconds,
            "slide_seconds": aggregator.slide_seconds,
            "rate_scale": aggregator.rate_scale,
            "track_statistics": aggregator.track_statistics,
            "deadline_ms": advisor.deadline_ms,
            "baseline_stats": _stats_values(aggregator.stats),
        },
        _session_record(advisor.session),
        {
            "section": "aggregator",
            "events": [event.to_dict() for event in aggregator._events],
            "since_emit": aggregator._since_emit,
            "seen": aggregator._seen,
            "emitted": aggregator._emitted,
            "clock": None
            if aggregator._clock == float("-inf")
            else aggregator._clock,
            "next_emit": aggregator._next_emit,
            "balance": dict(aggregator._balance),
        },
        {
            "section": "detector",
            "threshold": detector.threshold,
            "hysteresis": detector.hysteresis,
            "floor": detector.floor,
            "streak": detector.streak,
            "reference_load": None
            if detector._reference_load is None
            else _load_values(detector._reference_load),
            "reference_stats": None
            if detector._reference_stats is None
            else _stats_values(detector._reference_stats),
        },
        {
            "section": "pending",
            "perturbations": [
                perturbation.to_dict() for perturbation in advisor._pending
            ],
            "windows_held": advisor.windows_held,
        },
        {
            "section": "degradation",
            "events": advisor.degradation.to_dicts(),
        },
    ]
    records.extend(
        {"section": "step", "step": step.to_dict()} for step in advisor.steps
    )
    payload = _serialize("continuous_advisor", records)
    _write_payload(path, payload)
    return len(payload.encode("utf-8"))


def restore_advisor(
    path: str | pathlib.Path,
    stats: PathStatistics,
    load: LoadDistribution,
    *,
    degradation: DegradationReport | None = None,
    **session_options,
) -> ContinuousAdvisor:
    """Resurrect a checkpointed continuous advisor, ready to keep streaming.

    ``stats`` must be the *same baseline statistics* the original
    advisor was constructed with (verified value-for-value against the
    checkpoint — resuming against different baselines cannot be
    bit-identical and fails loudly); ``load`` provides the path scope
    for rebuilding stored loads. ``session_options`` are forwarded to
    the underlying :class:`~repro.whatif.AdvisorSession` exactly as the
    original constructor did. Feeding the restored advisor the remainder
    of the trace yields the same :class:`~repro.trace.ReplayStep`
    timeline, step for step and bit for bit, as the uninterrupted run.
    """
    records = _load_records(path, "continuous_advisor")
    options = _section(records, "options", path)
    if options["baseline_stats"] != _stats_values(stats):
        raise CheckpointError(
            f"checkpoint {path} was taken against different baseline "
            f"statistics than the ones provided"
        )

    report = degradation if degradation is not None else DegradationReport()
    for event in _section(records, "degradation", path)["events"]:
        report.record(
            event["layer"], event["action"], event["reason"], **event["detail"]
        )

    session = _restore_session_state(
        _section(records, "session", path),
        stats,
        load,
        path,
        report,
        session_options,
    )

    aggregator = WindowAggregator(
        stats,
        options["window"],
        slide=options["slide"] if options["window"] is not None else None,
        window_seconds=options["window_seconds"],
        slide_seconds=options["slide_seconds"],
        rate_scale=options["rate_scale"],
        track_statistics=options["track_statistics"],
    )
    stored = _section(records, "aggregator", path)
    for event in stored["events"]:
        aggregator._events.append(TraceEvent.from_dict(event))
    aggregator._since_emit = stored["since_emit"]
    aggregator._seen = stored["seen"]
    aggregator._emitted = stored["emitted"]
    aggregator._clock = (
        float("-inf") if stored["clock"] is None else stored["clock"]
    )
    aggregator._next_emit = stored["next_emit"]
    aggregator._balance.update(stored["balance"])

    stored = _section(records, "detector", path)
    detector = DriftDetector(
        threshold=stored["threshold"],
        hysteresis=stored["hysteresis"],
        floor=stored["floor"],
    )
    detector.streak = stored["streak"]
    if stored["reference_load"] is not None:
        detector._reference_load = _rebuild_load(
            load, stored["reference_load"]
        )
    if stored["reference_stats"] is not None:
        detector._reference_stats = _rebuild_stats(
            stats, stored["reference_stats"]
        )

    pending = _section(records, "pending", path)
    steps = [
        ReplayStep.from_dict(record["step"])
        for record in records
        if record.get("section") == "step"
    ]
    if not steps:
        raise CheckpointError(
            f"checkpoint {path} holds no replay steps (baseline missing)"
        )

    advisor = ContinuousAdvisor.__new__(ContinuousAdvisor)
    advisor.deadline_ms = options["deadline_ms"]
    advisor.degradation = report
    advisor._deadline_clock = time.monotonic
    advisor.session = session
    # The recorder travels through session_options into the restored
    # session; the advisor shares it (and re-resolves its hot-path
    # counters) exactly as __init__ would.
    advisor.recorder = session.recorder
    advisor._events_counter = advisor.recorder.counter("replay.events")
    advisor._windows_counter = advisor.recorder.counter("replay.windows")
    advisor._held_counter = advisor.recorder.counter("replay.windows_held")
    advisor._readvises_counter = advisor.recorder.counter("replay.readvises")
    advisor.aggregator = aggregator
    advisor.detector = detector
    advisor.steps = steps
    advisor.windows_held = pending["windows_held"]
    advisor._pending = [
        Perturbation.from_dict(record)
        for record in pending["perturbations"]
    ]
    return advisor


# ----------------------------------------------------------------------
# MultiPathSession checkpoints
# ----------------------------------------------------------------------
def save_multipath(
    session: MultiPathSession, path: str | pathlib.Path
) -> int:
    """Checkpoint a :class:`~repro.whatif.MultiPathSession`; returns bytes.

    One session record per path. The per-path candidate caches and the
    identical-question result cache are *not* serialized: they are pure
    caches whose loss costs time, never answers.
    """
    records: list[dict[str, Any]] = []
    for index, advisor_session in enumerate(session.sessions):
        record = _session_record(advisor_session)
        record["index"] = index
        records.append(record)
    payload = _serialize("multipath_session", records)
    _write_payload(path, payload)
    return len(payload.encode("utf-8"))


def restore_multipath(
    path: str | pathlib.Path,
    baselines: list[tuple[PathStatistics, LoadDistribution]],
    *,
    degradation: DegradationReport | None = None,
    **session_options,
) -> MultiPathSession:
    """Resurrect a checkpointed multi-path session.

    ``baselines`` provides one ``(stats, load)`` template per path, in
    the original order (paths and cost-model configs are not
    serialized). Each per-path session is rebuilt and primed exactly as
    :func:`restore_session` does; a ``recorder`` among the options is
    shared by the path sessions and the joint layer, as in
    :meth:`~repro.whatif.MultiPathSession.from_workloads`. Older files
    also hold the joint selection their session had cached; that section
    is ignored, since a session no longer carries one across calls.
    """
    records = _load_records(path, "multipath_session")
    session_records = [
        record for record in records if record.get("section") == "session"
    ]
    if len(session_records) != len(baselines):
        raise CheckpointError(
            f"checkpoint {path} holds {len(session_records)} paths, "
            f"{len(baselines)} baselines provided"
        )
    report = degradation if degradation is not None else DegradationReport()
    sessions = [
        _restore_session_state(
            record, stats, load, path, report, dict(session_options)
        )
        for record, (stats, load) in zip(
            sorted(session_records, key=lambda record: record["index"]),
            baselines,
        )
    ]
    return MultiPathSession(sessions, recorder=session_options.get("recorder"))
