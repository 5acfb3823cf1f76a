"""Measured-vs-analytic comparison: one seeded sampler for every caller.

:func:`sample_operations` is the ground-truth sample loop. It executes
seeded queries, deletions and clone-template insertions on a
:class:`~repro.backend.materialize.MaterializedConfiguration` and
returns, per ``(operation, class)``, the mean pages the tracker
measured. Both :func:`validate_configuration` (one configuration on one
database) and :func:`~repro.backend.calibrate.measure_scenarios` (the
seeded scenario suite) build their rows from it, so validation and
calibration sample the same operations with the same draws.

:func:`validate_configuration` pairs each sampled row with the analytic
expectation of the Section 3 cost models;
:func:`validate_storage` does the same for space: each part's
``storage_pages`` estimate against the pages its structures actually
hold.

Both sides count logical page fetches and rewrites; the analytic side is
an *expectation* over uniformly distributed values while the measured side
samples concrete ones, so ratios within a small factor — not equality —
are the success criterion.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.backend.materialize import MaterializedConfiguration
from repro.backend.replay import clone_kwargs, ending_values
from repro.core.configuration import IndexConfiguration
from repro.core.evaluation import per_class_analytic_costs
from repro.costmodel.params import CostModelConfig, PathStatistics
from repro.costmodel.subpath import build_model
from repro.errors import ReproError
from repro.indexes.manager import part_label
from repro.model.objects import OODatabase
from repro.model.path import Path
from repro.synth.stats import derive_path_statistics


def sample_operations(
    backend: MaterializedConfiguration,
    path: Path,
    rng: random.Random,
    query_samples: int,
    update_samples: int,
) -> list[tuple[str, int, str, float, int]]:
    """Seeded operations on ``backend``, one row per sampled class.

    Each row is ``(operation, position, class, mean pages, samples)``.
    All queries come first, while the database still matches the
    statistics: ``query_samples`` per non-empty scope class, each
    probing one ending value drawn from ``rng``. Then, for each class
    with more than ``update_samples`` objects, that many deletions of
    random victims (measured before the inserts, so the sample does not
    lean towards fresh objects) and that many insertions cloning random
    survivors; a template whose references all died is skipped.
    ``update_samples=0`` samples queries only.
    """
    database = backend.database
    values = ending_values(database, path)
    if not values:
        raise ReproError("database has no ending-attribute values to probe")

    rows: list[tuple[str, int, str, float, int]] = []
    for position in range(1, path.length + 1):
        for member in path.hierarchy_at(position):
            if database.extent_size(member) == 0 or not query_samples:
                continue
            total = 0
            for _ in range(query_samples):
                value = values[rng.randrange(len(values))]
                total += backend.query(value, member).io.total
            rows.append(
                ("query", position, member, total / query_samples, query_samples)
            )

    if not update_samples:
        return rows
    for position in range(1, path.length + 1):
        for member in path.hierarchy_at(position):
            if database.extent_size(member) <= update_samples:
                continue
            total = 0
            for _ in range(update_samples):
                extent = list(database.extent(member))
                victim = extent[rng.randrange(len(extent))]
                total += backend.delete(victim.oid).io.total
            rows.append(
                ("delete", position, member, total / update_samples, update_samples)
            )
            total = 0
            count = 0
            for _ in range(update_samples):
                survivors = list(database.extent(member))
                template = survivors[rng.randrange(len(survivors))]
                kwargs = clone_kwargs(database, template)
                if kwargs is None:
                    continue
                total += backend.insert(member, **kwargs).io.total
                count += 1
            if count:
                rows.append(("insert", position, member, total / count, count))
    return rows


@dataclass(frozen=True)
class ValidationRow:
    """One measured-vs-analytic comparison."""

    operation: str
    class_name: str
    analytic: float
    measured: float
    samples: int

    @property
    def ratio(self) -> float:
        """measured / analytic (``inf`` when the analytic cost is zero)."""
        if self.analytic == 0:
            return float("inf") if self.measured else 1.0
        return self.measured / self.analytic


def validate_configuration(
    database: OODatabase,
    path: Path,
    configuration: IndexConfiguration,
    samples: int = 10,
    seed: int = 0,
    config: CostModelConfig | None = None,
    stats: PathStatistics | None = None,
    include_updates: bool = True,
) -> list[ValidationRow]:
    """Compare analytic and measured page accesses for one configuration.

    Parameters
    ----------
    database:
        A populated database (the operational side mutates it for the
        update samples; pass a copy if that matters).
    path, configuration:
        What to index and how.
    samples:
        Operations sampled per (operation, class) pair.
    seed:
        Seeds the :func:`sample_operations` draws.
    config:
        Physical constants (shared by both sides).
    stats:
        Analytic statistics; derived from the database when omitted —
        which is the honest comparison.
    include_updates:
        Also validate inserts and deletes (mutates the database).
    """
    config = config or CostModelConfig()
    stats = stats or derive_path_statistics(database, path, config=config)
    analytic = per_class_analytic_costs(stats, configuration)
    backend = MaterializedConfiguration(
        database, path, configuration, sizes=config.sizes
    )
    sampled = sample_operations(
        backend,
        path,
        random.Random(seed),
        query_samples=samples,
        update_samples=samples if include_updates else 0,
    )
    return [
        ValidationRow(
            operation=operation,
            class_name=member,
            analytic=analytic[(position, member)][operation],
            measured=measured,
            samples=count,
        )
        for operation, position, member, measured, count in sampled
    ]


def render_validation(rows: list[ValidationRow]) -> str:
    """ASCII table of the comparison."""
    header = f"{'operation':<10} {'class':<16} {'analytic':>10} {'measured':>10} {'ratio':>7}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.operation:<10} {row.class_name:<16} "
            f"{row.analytic:>10.2f} {row.measured:>10.2f} {row.ratio:>7.2f}"
        )
    return "\n".join(lines)


@dataclass(frozen=True)
class StorageRow:
    """One part's analytic vs materialized page footprint."""

    label: str
    organization: str
    analytic: float
    measured: int

    @property
    def ratio(self) -> float:
        """measured / analytic (``inf`` when the estimate is zero)."""
        if self.analytic == 0:
            return float("inf") if self.measured else 1.0
        return self.measured / self.analytic


def validate_storage(
    database: OODatabase,
    path: Path,
    configuration: IndexConfiguration,
    config: CostModelConfig | None = None,
    stats: PathStatistics | None = None,
    layout: str = "btree",
) -> list[StorageRow]:
    """Compare each part's ``storage_pages`` estimate to real pages held.

    The configuration is materialized on a tracker, which attributes
    every allocated page to its owning part (or heap extent); the
    returned rows pair that live page count with the Section 3.4 storage
    estimate of the part's model. Because ownership is keyed by
    :func:`~repro.indexes.manager.part_label`, two configurations
    sharing a subpath assignment (the shared-NIX-primary case of the
    pruning lemmas) report under the same label and can be compared
    directly.
    """
    config = config or CostModelConfig()
    stats = stats or derive_path_statistics(database, path, config=config)
    backend = MaterializedConfiguration(
        database, path, configuration, sizes=config.sizes, layout=layout
    )
    live = backend.storage_by_owner()
    rows: list[StorageRow] = []
    for part in configuration.assignments:
        model = build_model(stats, part.start, part.end, part.organization)
        label = part_label(part)
        rows.append(
            StorageRow(
                label=label,
                organization=part.organization.name,
                analytic=model.storage_pages(),
                measured=live.get(label, 0),
            )
        )
    return rows


def render_storage(rows: list[StorageRow]) -> str:
    """ASCII table of the storage comparison."""
    header = (
        f"{'part':<18} {'org':<5} {'analytic':>10} {'measured':>9} {'ratio':>7}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.label:<18} {row.organization:<5} "
            f"{row.analytic:>10.1f} {row.measured:>9} {row.ratio:>7.2f}"
        )
    return "\n".join(lines)
