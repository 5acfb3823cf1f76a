"""Replaying a :mod:`repro.trace` stream against real page structures.

:func:`replay_trace` takes the same JSONL event stream the advisor mines
for workload drift and executes it — operation by operation — on a
:class:`~repro.backend.materialize.MaterializedConfiguration`. Events
name only a kind and a scope class; the replay driver makes them
concrete deterministically (seeded probe values, seeded deletion
victims, clone-template inserts), so the same trace against the same
world measures the same page I/O every run.

The report shows the analytic CRT/CMT expectation beside the measured
count twice over:

* per ``(operation, class)`` — the same axis the validation harness
  uses, now fed by a trace instead of uniform sampling;
* per ``(subpath, organization)`` — the analytic side split with
  :func:`~repro.core.evaluation.per_part_analytic_costs`, the measured
  side split by the tracker's page-owner attribution.

The per-part split has one deliberate asymmetry: heap traffic (object
fetches, ``NX``/``NONE`` extent scans) is owned by ``heap:<Class>``
labels on the measured side, while the analytic formulas fold scan costs
into the part. The report therefore lists heap I/O separately instead of
pretending the two decompositions coincide; totals are comparable,
per-part figures are diagnostic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

from repro.backend.materialize import MaterializedConfiguration
from repro.core.configuration import IndexConfiguration
from repro.core.evaluation import (
    per_class_analytic_costs,
    per_part_analytic_costs,
)
from repro.costmodel.params import CostModelConfig, PathStatistics
from repro.errors import ReproError
from repro.indexes.manager import part_label
from repro.model.objects import OID, OODatabase, ObjectInstance
from repro.model.path import Path
from repro.synth.stats import derive_path_statistics
from repro.trace.events import TraceEvent


def ending_values(database: OODatabase, path: Path) -> list[object]:
    """All distinct ending-attribute values, in deterministic order."""
    values: set[object] = set()
    ending = path.attribute_at(path.length)
    for member in path.hierarchy_at(path.length):
        for instance in database.extent(member):
            values.update(instance.value_list(ending))
    return sorted(values, key=repr)


def clone_kwargs(
    database: OODatabase, instance: ObjectInstance
) -> dict[str, object] | None:
    """Attribute values cloning ``instance``, with dead references pruned.

    Returns ``None`` when the template is unusable (every reference in
    some attribute points at deleted objects); the replay and
    :func:`~repro.backend.validate.sample_operations` skip such
    templates.
    """
    kwargs: dict[str, object] = {}
    for name in database.schema.all_attributes(instance.oid.class_name):
        value = instance.values[name]
        if isinstance(value, list):
            live = [
                v
                for v in value
                if not isinstance(v, OID) or database.contains(v)
            ]
            if not live:
                return None
            kwargs[name] = live
        elif isinstance(value, OID) and not database.contains(value):
            return None
        else:
            kwargs[name] = value
    return kwargs


@dataclass(frozen=True)
class ReplayRow:
    """Replayed events of one (kind, class): predicted vs measured."""

    kind: str
    class_name: str
    events: int
    predicted: float
    measured: int

    @property
    def predicted_mean(self) -> float:
        """Predicted pages per event."""
        return self.predicted / self.events if self.events else 0.0

    @property
    def measured_mean(self) -> float:
        """Measured pages per event."""
        return self.measured / self.events if self.events else 0.0

    @property
    def ratio(self) -> float:
        """measured / predicted (``inf`` when the prediction is zero)."""
        if self.predicted == 0:
            return float("inf") if self.measured else 1.0
        return self.measured / self.predicted


@dataclass(frozen=True)
class PartIORow:
    """One configuration part's share of the replayed I/O."""

    label: str
    organization: str
    predicted: float
    measured: int


@dataclass(frozen=True)
class BackendReplayReport:
    """Measured-vs-predicted outcome of one trace replay."""

    rows: tuple[ReplayRow, ...]
    parts: tuple[PartIORow, ...]
    heap_measured: int
    events: int
    replayed: int
    skipped: int
    build_total: int
    seed: int
    layout: str

    @property
    def predicted_total(self) -> float:
        """Analytic pages expected for all replayed events."""
        return sum(row.predicted for row in self.rows)

    @property
    def measured_total(self) -> int:
        """Pages actually touched by all replayed events."""
        return sum(row.measured for row in self.rows)

    @property
    def ratio(self) -> float:
        """measured / predicted over the whole replay."""
        predicted = self.predicted_total
        if predicted == 0:
            return float("inf") if self.measured_total else 1.0
        return self.measured_total / predicted

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable form (the benchmark artifact schema)."""
        return {
            "events": self.events,
            "replayed": self.replayed,
            "skipped": self.skipped,
            "seed": self.seed,
            "layout": self.layout,
            "build_total": self.build_total,
            "predicted_total": self.predicted_total,
            "measured_total": self.measured_total,
            "ratio": self.ratio,
            "heap_measured": self.heap_measured,
            "rows": [
                {
                    "kind": row.kind,
                    "class": row.class_name,
                    "events": row.events,
                    "predicted": row.predicted,
                    "measured": row.measured,
                }
                for row in self.rows
            ],
            "parts": [
                {
                    "label": part.label,
                    "organization": part.organization,
                    "predicted": part.predicted,
                    "measured": part.measured,
                }
                for part in self.parts
            ],
        }


_KIND_ORDER = {"query": 0, "insert": 1, "delete": 2}


def replay_trace(
    database: OODatabase,
    path: Path,
    configuration: IndexConfiguration,
    events: Iterable[TraceEvent],
    seed: int = 0,
    config: CostModelConfig | None = None,
    stats: PathStatistics | None = None,
    layout: str = "btree",
    recorder=None,
) -> BackendReplayReport:
    """Execute a trace on real page structures and compare to the model.

    Parameters
    ----------
    database:
        A populated database; mutated by the stream's inserts/deletes.
    path, configuration:
        What to materialize.
    events:
        The trace, e.g. from :func:`repro.trace.read_trace`. Events whose
        class is outside the path's scope, or that cannot be made
        concrete (no value to probe, no object to delete or clone), are
        counted as skipped rather than failing the replay.
    seed:
        Drives probe-value choice, deletion victims and clone templates.
    stats:
        Analytic statistics; derived from the *initial* database when
        omitted. The analytic side is held fixed over the replay — drift
        between prediction and measurement under a mutating stream is
        exactly what the report is for.
    layout:
        Storage layout for the materialized structures.
    recorder:
        An optional :class:`~repro.obs.Recorder`: the replay runs under
        a ``backend.replay`` span (materialization under
        ``backend.materialize``), with ``backend.replay.events`` and
        ``backend.replay.skipped`` counters.
    """
    from repro.obs.recorder import resolve_recorder

    recorder = resolve_recorder(recorder)
    config = config or CostModelConfig()
    stats = stats or derive_path_statistics(database, path, config=config)
    analytic = per_class_analytic_costs(stats, configuration)
    split = per_part_analytic_costs(stats, configuration)
    with recorder.span("backend.materialize", layout=layout):
        backend = MaterializedConfiguration(
            database, path, configuration, sizes=config.sizes, layout=layout
        )
    tracker = backend.tracker
    owner_before = {
        label: io.total for label, io in tracker.owner_stats().items()
    }

    position_of: dict[str, int] = {}
    for position in range(1, path.length + 1):
        for member in path.hierarchy_at(position):
            position_of[member] = position
    ending_hierarchy = set(path.hierarchy_at(path.length))

    rng = random.Random(seed)
    values = ending_values(database, path)
    values_dirty = False

    parts = configuration.assignments
    part_predicted = [0.0] * len(parts)
    aggregates: dict[tuple[str, str], list[float]] = {}
    replayed = 0
    skipped = 0

    def account(kind: str, class_name: str, measured: int) -> None:
        nonlocal replayed
        position = position_of[class_name]
        predicted = analytic[(position, class_name)][kind]
        entry = aggregates.setdefault((kind, class_name), [0, 0.0, 0])
        entry[0] += 1
        entry[1] += predicted
        entry[2] += measured
        for g, share in enumerate(split[(position, class_name)][kind]):
            part_predicted[g] += share
        replayed += 1

    total_events = 0
    with recorder.span("backend.replay", layout=layout, seed=seed) as span:
        for event in events:
            total_events += 1
            class_name = event.class_name
            if class_name not in position_of:
                skipped += 1
                continue
            if event.kind == "query":
                if values_dirty:
                    values = ending_values(database, path)
                    values_dirty = False
                if not values:
                    skipped += 1
                    continue
                value = values[rng.randrange(len(values))]
                measured = backend.query(value, class_name)
                account("query", class_name, measured.io.total)
            elif event.kind == "insert":
                extent = list(database.extent(class_name))
                if not extent:
                    skipped += 1
                    continue
                template = extent[rng.randrange(len(extent))]
                kwargs = clone_kwargs(database, template)
                if kwargs is None:
                    skipped += 1
                    continue
                measured = backend.insert(class_name, **kwargs)
                account("insert", class_name, measured.io.total)
                if class_name in ending_hierarchy:
                    values_dirty = True
            elif event.kind == "delete":
                extent = list(database.extent(class_name))
                if not extent:
                    skipped += 1
                    continue
                victim = extent[rng.randrange(len(extent))]
                measured = backend.delete(victim.oid)
                account("delete", class_name, measured.io.total)
                if class_name in ending_hierarchy:
                    values_dirty = True
            else:  # pragma: no cover - TraceEvent validates kinds
                raise ReproError(f"unknown event kind {event.kind!r}")
        span.note(events=total_events, replayed=replayed, skipped=skipped)
    recorder.counter("backend.replay.events").add(total_events)
    recorder.counter("backend.replay.skipped").add(skipped)

    owner_after = {
        label: io.total for label, io in tracker.owner_stats().items()
    }
    measured_by_owner = {
        label: owner_after[label] - owner_before.get(label, 0)
        for label in owner_after
    }
    part_rows = tuple(
        PartIORow(
            label=part_label(part),
            organization=part.organization.name,
            predicted=part_predicted[g],
            measured=measured_by_owner.get(part_label(part), 0),
        )
        for g, part in enumerate(parts)
    )
    heap_measured = sum(
        total
        for label, total in measured_by_owner.items()
        if label.startswith("heap:")
    )
    rows = tuple(
        ReplayRow(
            kind=kind,
            class_name=class_name,
            events=int(entry[0]),
            predicted=entry[1],
            measured=int(entry[2]),
        )
        for (kind, class_name), entry in sorted(
            aggregates.items(),
            key=lambda item: (_KIND_ORDER[item[0][0]], item[0][1]),
        )
    )
    return BackendReplayReport(
        rows=rows,
        parts=part_rows,
        heap_measured=heap_measured,
        events=total_events,
        replayed=replayed,
        skipped=skipped,
        build_total=backend.build_io.total,
        seed=seed,
        layout=layout,
    )


def render_backend_replay(report: BackendReplayReport) -> str:
    """ASCII rendering: per-(kind, class) table, then the per-part table."""
    lines: list[str] = []
    header = (
        f"{'kind':<8} {'class':<16} {'events':>6} "
        f"{'pred/op':>9} {'meas/op':>9} {'ratio':>7}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in report.rows:
        lines.append(
            f"{row.kind:<8} {row.class_name:<16} {row.events:>6} "
            f"{row.predicted_mean:>9.2f} {row.measured_mean:>9.2f} "
            f"{row.ratio:>7.2f}"
        )
    lines.append("")
    part_header = (
        f"{'part':<18} {'org':<5} {'predicted':>10} {'measured':>9}"
    )
    lines.append(part_header)
    lines.append("-" * len(part_header))
    for part in report.parts:
        lines.append(
            f"{part.label:<18} {part.organization:<5} "
            f"{part.predicted:>10.1f} {part.measured:>9}"
        )
    lines.append(
        f"{'heap (measured only)':<24} {'':>10} {report.heap_measured:>9}"
    )
    lines.append("")
    lines.append(
        f"events={report.events} replayed={report.replayed} "
        f"skipped={report.skipped} predicted={report.predicted_total:.1f} "
        f"measured={report.measured_total} ratio={report.ratio:.3f}"
    )
    return "\n".join(lines)
