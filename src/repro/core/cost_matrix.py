"""The ``Cost_Matrix`` and ``Min_Cost`` procedures (Section 5).

``Cost_Matrix`` computes the processing cost of every one of the
``n(n+1)/2`` contiguous subpaths with every index organization and stores
them in a matrix whose rows are subpaths and whose columns are
organizations (Figure 6). ``Min_Cost`` underlines the minimum of each row
— the best organization for each subpath in isolation.

Storage is the kernel's own format, a
:class:`~repro.kernel.evaluate.RowCosts`: one ``(rows × organizations)``
float64 array per cost component, rows in Figure 6 order. Construction
finds every row minimum in one pass over the columns and keeps the totals
and minima as Python lists too, so the search strategies' inner loops
(``cost``, ``min_cost``) are O(1) reads; :meth:`CostMatrix.breakdown`
assembles a :class:`~repro.costmodel.subpath.SubpathCost` from the arrays
on demand.

A matrix can also be constructed from literal values
(:meth:`CostMatrix.from_values`), which is how the Figure 6 hypothetical
matrix and its walkthrough are reproduced.

Construction is the pipeline's bottleneck on long paths, so every row,
range-predicate rows included, is priced by the columnar numpy kernel
(:mod:`repro.kernel`), bit-identically to the scalar cost model; rows
can be fanned out over worker processes (:meth:`CostMatrix.compute`
with ``workers``), and :meth:`CostMatrix.recompute` re-prices only the
rows whose inputs actually changed for cheap what-if loops over evolving
workloads.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from repro import kernel
from repro.costmodel.params import PathStatistics
from repro.costmodel.subpath import SubpathCost
from repro.errors import OptimizerError
from repro.kernel.arrays import newest_cached_arrays
from repro.kernel.evaluate import RowCosts, cmd_and_total
from repro.obs.recorder import NULL_RECORDER, Recorder, resolve_recorder
from repro.organizations import (
    CONFIGURABLE_ORGANIZATIONS,
    IndexOrganization,
    canonical_organization,
)
from repro.workload.load import LoadDistribution


@dataclass(frozen=True)
class RowMinimum:
    """The underlined entry of one matrix row."""

    cost: float
    organization: IndexOrganization


#: Relative tolerance for row-minimum ties. The analytic cost formulas for
#: different organizations can coincide mathematically (e.g. MX and MIX on
#: a class without subclasses) while differing in the last few ulps
#: depending on evaluation order; ties within this tolerance resolve to
#: the earliest organization in column order, matching the paper's
#: preference and keeping the selected configuration stable under
#: numerically equivalent reformulations of the cost model.
TIE_RELATIVE_TOLERANCE = 1e-9

#: Shortest path for which ``workers=None`` (auto) parallelizes
#: construction. Below it process startup and input transfer eat the win:
#: on a 2-CPU x86_64 host, DP ``advise`` took 202 ms serially against
#: 200 ms with ``workers=2`` at length 40, and 501 ms against 434 ms at
#: length 64 (medians of six benchmark-shaped worlds).
PARALLEL_AUTO_MIN_LENGTH = 60

#: Worker-pool fan-out attempts before the serial fallback, and the pause
#: before the second. Serial evaluation is always correct, so one quick
#: retry is all a transient crash (a worker OOM-killed, a fork raced
#: against shutdown) gets.
POOL_ATTEMPTS = 2
POOL_RETRY_PAUSE_SECONDS = 0.05

# Patchable seam: tests replace this to observe the retry pause without
# waiting.
_sleep = time.sleep


def _usable_cpus() -> int:
    """CPUs this process may run on, not the host's count.

    ``os.cpu_count()`` ignores ``taskset`` masks and cpusets, so the
    scheduler affinity decides where the platform reports it.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


def _warn_parallel_fallback(reason: str) -> None:
    """One :class:`RuntimeWarning` per distinct fallback cause.

    Python's default warning filter deduplicates per (message, category,
    call site), so a long what-if loop that keeps hitting the same broken
    pool warns once instead of flooding stderr — while the structured
    cause stays queryable on every affected matrix
    (:attr:`CostMatrix.parallel_fallback_reason`).
    """
    warnings.warn(
        f"parallel cost-matrix construction fell back to serial "
        f"evaluation: {reason}",
        RuntimeWarning,
        stacklevel=3,
    )


@dataclass(frozen=True)
class RecomputeReport:
    """What one :meth:`CostMatrix.recompute` call actually did.

    ``mode`` is ``"incremental"`` when the dirty-row analysis applied and
    ``"full"`` when the change forced a complete rebuild (the ``reason``
    says why — e.g. a cost-model config change). ``recomputed_rows`` are
    the rows re-priced through the cost model; ``patched_rows`` are the
    rows whose only change was the ``CMD`` term of a following deletion,
    re-derived as array operations from the matrix's stored CMD rates.
    Sessions and benchmarks assert incrementality from this report instead
    of inferring it from timings.
    """

    mode: str
    reason: str
    recomputed_rows: tuple[tuple[int, int], ...]
    patched_rows: tuple[tuple[int, int], ...]
    total_rows: int

    # The kernel prices every row, so no re-priced row ever falls back to
    # another engine. The benchmark harness's per-layer trace still reads
    # this name to count fallbacks, so it stays as a constant, not a field.
    kernel_fallback_reason = None

    @property
    def incremental(self) -> bool:
        """``True`` when the dirty-row analysis applied."""
        return self.mode == "incremental"

    @property
    def dirty_rows(self) -> tuple[tuple[int, int], ...]:
        """Every row this recompute touched, in Figure 6 row order."""
        return tuple(sorted({*self.recomputed_rows, *self.patched_rows}))

    @property
    def dirty_count(self) -> int:
        """Number of touched rows (re-priced plus patched)."""
        return len(self.recomputed_rows) + len(self.patched_rows)

    def describe(self) -> str:
        """One-line human-readable summary."""
        if self.mode == "full":
            return f"full rebuild ({self.reason}): {self.total_rows} rows"
        return (
            f"incremental: {len(self.recomputed_rows)} rows re-priced, "
            f"{len(self.patched_rows)} CMD-patched, of {self.total_rows}"
        )


@lru_cache(maxsize=16)
def _subpaths(length: int) -> tuple[tuple[int, int], ...]:
    """Row coordinates of a length-``length`` matrix in Figure 6 order.

    Shared by every matrix of that length, so the row sets that each kept
    :class:`RecomputeReport` holds cost one pointer per row, not a tuple.
    """
    return tuple(
        (start, end)
        for start in range(1, length + 1)
        for end in range(start, length + 1)
    )


def _column_minima(total: np.ndarray, eligible: np.ndarray):
    """``Min_Cost`` of every row at once: (cost, column) arrays.

    One pass over the columns, each step covering all rows; ``eligible``
    (a boolean mask shaped like ``total``) restricts each row to some of
    its columns. A later column only displaces the running minimum when
    it is strictly smaller beyond the tie tolerance; the symmetric
    absolute form keeps the comparison direction correct for costs of any
    sign, so exact and near ties resolve to the earliest organization in
    column order. Against an infinite running minimum the relative form
    is indeterminate, so any smaller value wins outright.
    """
    cost = total[:, 0].copy()
    column = np.zeros(total.shape[0], dtype=np.int64)
    found = eligible[:, 0].copy()
    # An infinite row subtracts inf from inf; that branch is discarded.
    with np.errstate(invalid="ignore"):
        for index in range(1, total.shape[1]):
            value = total[:, index]
            smaller = np.where(
                cost == np.inf,
                value < cost,
                cost - value
                > TIE_RELATIVE_TOLERANCE
                * np.maximum(np.abs(value), np.abs(cost)),
            )
            take = eligible[:, index] & (smaller | ~found)
            found |= eligible[:, index]
            cost = np.where(take, value, cost)
            column[take] = index
    return cost, column


def _evaluate_rows(
    stats: PathStatistics,
    load: LoadDistribution,
    organizations: tuple[IndexOrganization, ...],
    rows: list[tuple[int, int]],
    range_selectivity: float | None,
    arrays=None,
    recorder=NULL_RECORDER,
) -> RowCosts:
    """Price rows with the columnar kernel.

    The kernel batches every (row, organization) pair into array
    operations (:mod:`repro.kernel`) and returns the rows' component
    arrays, bit-identical to
    :func:`~repro.costmodel.subpath.subpath_processing_cost`, the scalar
    parity oracle. ``arrays`` optionally hands it a pre-lowered (or
    workload-patched) :class:`~repro.kernel.arrays.StatArrays` for these
    exact inputs.

    With an enabled ``recorder`` the evaluation splits into
    ``kernel.lower`` / ``kernel.fold`` spans (the explicit ``lower`` is
    the same cache-backed lookup the kernel performs internally, so
    timing it changes nothing), ``kernel.fold`` opens one
    ``kernel.fold.<organization>`` child per canonical organization, and
    the lowering-cache probe lands on the ``kernel.lowering_cache.*``
    counters; every batch adds its size to ``matrix.rows_priced`` and its
    (row, organization) entries to ``kernel.entries``.
    """
    recorder.counter("matrix.rows_priced").add(len(rows))
    if recorder.enabled and arrays is None:
        arrays = lowering(stats, load, range_selectivity, len(rows), recorder)
    with recorder.span("kernel.fold", rows=len(rows)):
        return kernel.compute_rows(
            stats, load, organizations, rows, range_selectivity,
            arrays=arrays, recorder=recorder,
        )


def lowering(
    stats: PathStatistics,
    load: LoadDistribution,
    range_selectivity: float | None,
    rows: int,
    recorder=NULL_RECORDER,
):
    """The cached lowering of these inputs, lowering them on a miss.

    The probe lands on the ``kernel.lowering_cache.*`` counters and a
    fresh lowering (for ``rows`` matrix rows) in a ``kernel.lower`` span.
    """
    cached = kernel.cached_lowering(stats, load, range_selectivity)
    if cached is not None:
        recorder.counter("kernel.lowering_cache.hits").add()
        return cached
    recorder.counter("kernel.lowering_cache.misses").add()
    with recorder.span("kernel.lower", rows=rows):
        return kernel.lower(stats, load, range_selectivity)


#: Worker-process copy of the fan-out's shared inputs ``(stats, load,
#: organizations, range_selectivity, arrays, record)``, installed by
#: :func:`_init_worker`; never set in the parent process, so concurrent
#: constructions cannot race on it.
_WORKER_INPUTS: tuple | None = None


def _init_worker(inputs: tuple) -> None:
    """Pool initializer: install the shared inputs in one worker.

    Under ``fork`` the inputs reach the worker by memory image, the
    parent's columnar lowering (``arrays``) included; under any other
    start method they are pickled once per worker, without a lowering
    (it holds its statistics by weakref), and the worker lowers its own.
    """
    global _WORKER_INPUTS
    _WORKER_INPUTS = inputs


def _price_stripe(rows: list[tuple[int, int]]) -> tuple[RowCosts, dict | None]:
    """Worker entry point: price one stripe of rows.

    Top-level so it pickles by reference; each row is priced
    independently, so the result is bit-identical to a serial evaluation
    of the same rows however they are striped. With ``record`` set the
    stripe runs under a private :class:`~repro.obs.Recorder` whose
    serialized profile ships back beside the rows; otherwise the profile
    slot is ``None`` and instrumentation costs nothing.
    """
    stats, load, organizations, range_selectivity, arrays, record = (
        _WORKER_INPUTS
    )
    recorder = Recorder() if record else NULL_RECORDER
    with recorder.span("matrix.worker_batch", rows=len(rows)):
        priced = _evaluate_rows(
            stats, load, organizations, rows, range_selectivity,
            arrays=arrays, recorder=recorder,
        )
    return priced, recorder.profile() if record else None


def _run_pool_once(
    workers: int, inputs: tuple, stripes: list[list[tuple[int, int]]]
) -> tuple[list, list]:
    """One worker-pool fan-out attempt (the fault-injection seam).

    Kept as a module-level function so :meth:`CostMatrix._compute_rows`
    can re-run a *single* pool lifecycle and the chaos tests can fail
    one by monkeypatching.

    Returns ``(results, profiles)``: each stripe's priced
    :class:`~repro.kernel.evaluate.RowCosts` and its observability
    profile (or ``None``), both in stripe order — the order the parent
    scatters rows by and assigns worker ``tid``\\ s in when merging
    profiles into its recorder.
    """
    from concurrent.futures import ProcessPoolExecutor

    results: list = []
    profiles: list = []
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(inputs,)
    ) as pool:
        for priced, profile in pool.map(_price_stripe, stripes):
            results.append(priced)
            profiles.append(profile)
    return results, profiles


class CostMatrix:
    """Subpath × organization processing costs.

    Rows are addressed by 1-based inclusive bounds ``(start, end)``; the
    row order of :meth:`rows` matches Figure 6 (by start, then end).
    """

    def __init__(
        self,
        length: int,
        organizations: tuple[IndexOrganization, ...],
        entries: dict[tuple[int, int], dict[IndexOrganization, float]],
        breakdowns: dict[tuple[int, int], dict[IndexOrganization, SubpathCost]]
        | None = None,
    ) -> None:
        """A literal matrix; ``breakdowns`` optionally adds every entry's
        components. Both are lowered into the arrays a computed matrix
        keeps, the totals taken from ``entries``."""
        if length < 1:
            raise OptimizerError("path length must be at least 1")
        organizations = tuple(organizations)
        rows = _subpaths(length)
        total = np.zeros((len(rows), len(organizations)))
        costs = RowCosts.zeros(*total.shape) if breakdowns else None
        for position, (start, end) in enumerate(rows):
            values = entries.get((start, end))
            if values is None:
                raise OptimizerError(f"missing matrix row ({start},{end})")
            for column, organization in enumerate(organizations):
                if organization not in values:
                    raise OptimizerError(
                        f"row ({start},{end}) missing {organization}"
                    )
                total[position, column] = values[organization]
                if costs is not None:
                    cost = breakdowns.get((start, end), {}).get(organization)
                    if cost is None:
                        raise OptimizerError(
                            f"row ({start},{end}) lacks a {organization} breakdown"
                        )
                    costs.put(position, column, cost)
        extra = set(entries) - set(rows)
        if extra:
            raise OptimizerError(
                f"rows outside the 1..{length} subpath triangle: "
                f"{sorted(extra)}"
            )
        if costs is not None:
            costs = costs._replace(total=total)
        self._setup(length, organizations, total, costs)

    def _setup(
        self,
        length: int,
        organizations: tuple[IndexOrganization, ...],
        total: np.ndarray,
        costs: RowCosts | None,
    ) -> None:
        """Install a matrix's arrays and derive its O(1) read views (on a
        bare ``CostMatrix.__new__`` for computed and storage matrices)."""
        if not organizations:
            raise OptimizerError("at least one organization is required")
        self.length = length
        self.organizations = organizations
        self._org_index = {
            organization: index
            for index, organization in enumerate(organizations)
        }
        # The component arrays (None for a literal matrix without
        # breakdowns), the totals and their Python-float views.
        self._costs = costs
        self._total = total
        self._values = total.ravel().tolist()
        minimum_cost, minimum_column = _column_minima(
            total, np.ones(total.shape, dtype=bool)
        )
        self._row_min_cost = minimum_cost.tolist()
        self._row_min_org = minimum_column.tolist()
        # Inputs of a computed matrix (attached by compute()/recompute());
        # literal matrices keep them None and cannot be recomputed.
        self._stats: PathStatistics | None = None
        self._load: LoadDistribution | None = None
        self._range_selectivity: float | None = None
        #: What the producing :meth:`recompute` did (``None`` for matrices
        #: built by :meth:`compute` or :meth:`from_values`).
        self.recompute_report: RecomputeReport | None = None
        #: Why a requested parallel construction fell back to serial
        #: evaluation (``None`` when it ran as requested). Serial results
        #: are byte-identical, but the *cause* is never swallowed: it is
        #: recorded here and warned about once per process.
        self.parallel_fallback_reason: str | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def compute(
        cls,
        stats: PathStatistics,
        load: LoadDistribution,
        organizations: tuple[IndexOrganization, ...] = CONFIGURABLE_ORGANIZATIONS,
        include_noindex: bool = False,
        range_selectivity: float | None = None,
        workers: int | None = None,
        degradation=None,
        recorder=None,
    ) -> "CostMatrix":
        """The ``Cost_Matrix`` procedure over the analytic cost model.

        ``include_noindex`` appends the ``NONE`` organization to
        ``organizations`` when it is not already there.
        ``range_selectivity`` switches the workload's queries from
        equality to range predicates with the given selectivity.

        Every (row, organization) pair is priced by the columnar kernel
        (:mod:`repro.kernel`), bit-identically to the scalar
        :func:`~repro.costmodel.subpath.subpath_processing_cost`.

        ``workers`` fans the (independent) rows out over a process pool:
        ``None`` (default) parallelizes automatically on long paths
        (length ≥ :data:`PARALLEL_AUTO_MIN_LENGTH`, one worker per usable CPU),
        ``0`` or ``1`` forces serial evaluation, ``N > 1`` uses exactly
        ``N`` workers. Every worker count produces a bit-identical
        matrix; only construction speed differs.

        A failed fan-out is tried :data:`POOL_ATTEMPTS` times, then the
        rows are priced serially; ``degradation`` (a
        :class:`~repro.resilience.DegradationReport`) receives one
        structured event per fallback taken. A serial fallback is also
        recorded on the result as :attr:`parallel_fallback_reason` and
        warned about once.

        ``recorder`` (a :class:`~repro.obs.Recorder`; ``None`` means the
        no-op :data:`~repro.obs.NULL_RECORDER`) wraps the build in a
        ``matrix.build`` span with ``kernel.lower``/``kernel.fold``
        children and absorbs per-worker profiles from parallel fan-outs.
        """
        if include_noindex and IndexOrganization.NONE not in organizations:
            organizations = (*organizations, IndexOrganization.NONE)
        organizations = tuple(organizations)
        recorder = resolve_recorder(recorder)
        length = stats.length
        rows = _subpaths(length)
        recorder.counter("matrix.builds").add()
        with recorder.span("matrix.build", length=length, rows=len(rows)):
            costs, fallback_reason = cls._compute_rows(
                stats, load, organizations, rows, range_selectivity,
                workers, degradation, recorder=recorder,
            )
            matrix = cls.__new__(cls)
            matrix._setup(length, organizations, costs.total, costs)
        matrix._stats = stats
        matrix._load = load
        matrix._range_selectivity = range_selectivity
        matrix.parallel_fallback_reason = fallback_reason
        if fallback_reason is not None:
            recorder.counter("matrix.parallel_fallbacks").add()
            _warn_parallel_fallback(fallback_reason)
        return matrix

    @staticmethod
    def _resolve_workers(workers: int | None, row_count: int) -> int:
        """Number of worker processes to use (1 means in-process serial)."""
        if workers is None:
            if row_count < PARALLEL_AUTO_MIN_LENGTH * (PARALLEL_AUTO_MIN_LENGTH + 1) // 2:
                return 1
            workers = _usable_cpus()
        if workers < 0:
            raise OptimizerError(f"workers must be >= 0, got {workers}")
        return max(1, min(workers, row_count))

    @classmethod
    def _compute_rows(
        cls,
        stats: PathStatistics,
        load: LoadDistribution,
        organizations: tuple[IndexOrganization, ...],
        rows: list[tuple[int, int]],
        range_selectivity: float | None,
        workers: int | None,
        degradation=None,
        arrays=None,
        recorder=NULL_RECORDER,
    ) -> tuple[RowCosts, str | None]:
        """Price a set of rows, serially or over a process pool.

        Returns ``(costs, parallel_fallback_reason)``: ``costs`` holds the
        rows in the order of ``rows``, however they were distributed, and
        the reason is ``None`` unless a requested parallel fan-out failed
        :data:`POOL_ATTEMPTS` times and the rows were priced serially
        instead. ``degradation`` (a
        :class:`~repro.resilience.DegradationReport`) receives one event
        per fallback taken.

        Rows are striped across the workers so each sees a mix of short
        (cheap) and long (expensive) subpaths, and each stripe's arrays
        are scattered back by its stride. Every attempt runs one pool
        lifecycle through :func:`_run_pool_once`; a broken or killed
        worker, an unpicklable input or an OS refusing to start a process
        fails the attempt, any other exception propagates.

        ``arrays`` is an optional pre-lowered columnar
        :class:`~repro.kernel.arrays.StatArrays` for exactly these inputs.
        ``recorder`` (already resolved; never ``None``) receives the
        evaluation spans and, on parallel builds, the per-worker
        profiles merged under ``tid`` 1..n in stripe order.
        """
        resolved = cls._resolve_workers(workers, len(rows))
        fallback_reason: str | None = None
        if resolved > 1:
            # Imported here so serial builds never load the pool modules.
            from concurrent.futures.process import BrokenProcessPool

            if arrays is None:
                with recorder.span("kernel.lower", rows=len(rows)):
                    arrays = kernel.lower(stats, load, range_selectivity)
            # Fork-started workers inherit the parent's lowering; a
            # lowering cannot be pickled, so elsewhere each worker lowers
            # its own.
            inherited = multiprocessing.get_start_method() == "fork"
            inputs = (
                stats, load, organizations, range_selectivity,
                arrays if inherited else None, recorder.enabled,
            )
            # ``resolved`` never exceeds the row count: no stripe is empty.
            stripes = [rows[offset::resolved] for offset in range(resolved)]
            with recorder.span(
                "matrix.pool", workers=resolved, rows=len(rows)
            ):
                for attempt in range(1, POOL_ATTEMPTS + 1):
                    if attempt > 1:
                        _sleep(POOL_RETRY_PAUSE_SECONDS)
                    try:
                        batches, profiles = _run_pool_once(
                            resolved, inputs, stripes
                        )
                    except (
                        OSError, BrokenProcessPool, pickle.PicklingError
                    ) as caught:
                        error = caught
                    else:
                        error = None
                        break
            if attempt > 1:
                recorder.counter("matrix.pool.retries").add(attempt - 1)
            if error is None:
                priced = RowCosts.zeros(len(rows), len(organizations))
                for offset, (batch, profile) in enumerate(
                    zip(batches, profiles)
                ):
                    priced.write(slice(offset, None, resolved), batch)
                    recorder.absorb(profile, tid=offset + 1)
                return priced, None
            cause = type(error).__name__
            if str(error):
                cause = f"{cause}: {error}"
            fallback_reason = f"{cause} (after {attempt} attempts)"
            recorder.counter(
                "resilience.degradations", layer="matrix",
                action="serial_fallback",
            ).add()
            if degradation is not None:
                degradation.record(
                    "matrix", "serial_fallback", fallback_reason,
                    workers=resolved, rows=len(rows),
                )
        priced = _evaluate_rows(
            stats, load, organizations, rows, range_selectivity,
            arrays=arrays, recorder=recorder,
        )
        return priced, fallback_reason

    @classmethod
    def from_values(
        cls,
        length: int,
        values: dict[tuple[int, int], dict[IndexOrganization, float]],
    ) -> "CostMatrix":
        """A matrix from literal costs (e.g. the Figure 6 hypothetical).

        The organization set is taken from the first row; every other row
        must provide exactly the same organizations, otherwise an
        :class:`OptimizerError` is raised (a partially-specified matrix
        would silently mis-rank subpaths).
        """
        if not values:
            raise OptimizerError("at least one matrix row is required")
        organizations = tuple(next(iter(values.values())).keys())
        expected = set(organizations)
        for coordinates, row in values.items():
            if set(row.keys()) != expected:
                raise OptimizerError(
                    f"row {coordinates} defines organizations "
                    f"{sorted(str(org) for org in row)} but the matrix uses "
                    f"{sorted(str(org) for org in expected)}"
                )
        return cls(length, organizations, values)

    # ------------------------------------------------------------------
    # incremental updates
    # ------------------------------------------------------------------
    def recompute(
        self,
        stats: PathStatistics | None = None,
        load: LoadDistribution | None = None,
        *,
        workers: int | None = 0,
        degradation=None,
        recorder=None,
    ) -> "CostMatrix":
        """A new matrix under changed inputs, re-pricing only dirty rows.

        ``stats``/``load`` replace the inputs this matrix was computed
        with (``None`` keeps the old one). The dirty-row analysis is
        exact: a row is recomputed iff one of its inputs can reach it —

        * a statistics change on a class at position ``p`` touches every
          row with ``start <= p`` (rows covering ``p`` read its shapes and
          loads; rows ending before ``p`` read it through the probe-key
          fan-in chain of the remaining path); rows starting after ``p``
          never look at it;
        * a query-frequency change at ``p`` touches rows with
          ``end >= p`` (the subpath's own derived load, or the upstream
          mass folded into a later subpath's starting class);
        * an insert-frequency change at ``p`` touches rows covering ``p``;
        * a delete-frequency change at ``p`` touches rows covering ``p``
          plus rows ending at ``p - 1`` (their ``CMD`` term);
        * a config or hierarchy-membership change falls back to a full
          recompute.

        Rows whose *only* change is the ``CMD`` term of a following
        deletion are not re-priced through the cost model at all: the
        matrix keeps every entry's per-deletion rate (statistics-only), so
        their ``CMD`` terms and totals are re-derived as array operations.
        Clean rows are copied bit-for-bit. Either way the result is always
        entry-for-entry identical to a fresh :meth:`compute` over the new
        inputs, and its :attr:`recompute_report` records exactly which
        rows were re-priced, which were patched, and why (so callers can
        assert incrementality instead of inferring it from timings).

        ``workers`` defaults to ``0`` (serial) because dirty sets are
        typically small; pass ``None`` for the same auto-parallel policy
        as :meth:`compute`. Dirty sets go through the columnar kernel as
        array-slice re-evaluations over the cached lowering of the old
        inputs (a workload-only drift patches it in place) or, without
        one, over a fresh lowering of the new inputs.

        Raises :class:`~repro.errors.OptimizerError` for literal matrices
        (:meth:`from_values`) and when the new inputs describe a different
        path.
        """
        if self._stats is None or self._load is None:
            raise OptimizerError(
                "recompute requires a matrix built by CostMatrix.compute(...); "
                "literal matrices carry no statistics or workload"
            )
        new_stats = stats if stats is not None else self._stats
        new_load = load if load is not None else self._load
        if (
            str(new_stats.path) != str(self._stats.path)
            or str(new_load.path) != str(new_stats.path)
        ):
            raise OptimizerError(
                "recompute requires inputs for the same path "
                f"({self._stats.path}); build a fresh matrix for "
                f"{new_stats.path}"
            )
        recorder = resolve_recorder(recorder)
        classified = self._classify_dirty(new_stats, new_load)
        if classified is None:
            dirty_rows = self.rows()
            patch_rows: list[tuple[int, int]] = []
            mode = "full"
            reason = self._full_rebuild_reason(new_stats)
        else:
            recompute_set, patch_set = classified
            dirty_rows = sorted(recompute_set)
            patch_rows = sorted(patch_set)
            mode = "incremental"
            reason = "statistics/load deltas"
        with recorder.span(
            "matrix.recompute",
            mode=mode,
            dirty=len(dirty_rows),
            patched=len(patch_rows),
        ):
            arrays = (
                self._kernel_slice_arrays(new_stats, new_load, recorder)
                if dirty_rows
                else None
            )
            recomputed, fallback_reason = self._compute_rows(
                new_stats,
                new_load,
                self.organizations,
                dirty_rows,
                self._range_selectivity,
                workers,
                degradation,
                arrays=arrays,
                recorder=recorder,
            )
        recorder.counter("matrix.recomputes").add()
        recorder.counter("matrix.recompute.rows_repriced").add(len(dirty_rows))
        recorder.counter("matrix.recompute.rows_patched").add(len(patch_rows))
        report = RecomputeReport(
            mode=mode,
            reason=reason,
            recomputed_rows=tuple(dirty_rows),
            patched_rows=tuple(patch_rows),
            total_rows=self.row_count(),
        )
        # Clean rows keep the parent's slots, re-priced rows are written as
        # array slices and CMD-only rows are re-derived from their stored
        # rates, so a what-if step does no per-entry Python work.
        costs = RowCosts(*(array.copy() for array in self._costs))
        costs.write([self.row_index(*row) for row in dirty_rows], recomputed)
        if patch_rows:
            index = [self.row_index(*row) for row in patch_rows]
            # The following hierarchy's deletion mass, summed in
            # SubpathContext.build's member order.
            following = [
                [sum(new_load.triplet(m).delete for m in new_stats.members(end + 1))]
                for _, end in patch_rows
            ]
            costs.cmd[index], costs.total[index] = cmd_and_total(
                costs.query[index], costs.insert[index], costs.delete[index],
                costs.rate[index], np.array(following),
            )
        matrix = CostMatrix.__new__(CostMatrix)
        matrix._setup(self.length, self.organizations, costs.total, costs)
        matrix._stats = new_stats
        matrix._load = new_load
        matrix._range_selectivity = self._range_selectivity
        matrix.recompute_report = report
        matrix.parallel_fallback_reason = fallback_reason
        if fallback_reason is not None:
            recorder.counter("matrix.parallel_fallbacks").add()
            _warn_parallel_fallback(fallback_reason)
        return matrix

    def _kernel_slice_arrays(
        self,
        new_stats: PathStatistics,
        new_load: LoadDistribution,
        recorder=NULL_RECORDER,
    ) -> object | None:
        """The lowering for a kernel dirty-slice, or ``None``.

        A columnar :class:`~repro.kernel.arrays.StatArrays` for the *new*
        inputs: the cached lowering itself when nothing relevant drifted,
        or a workload patch of it when only the load changed. Once
        sibling branches off this matrix have evicted its own lowering
        from the bounded cache, the newest lowering of the same statistics
        is patched instead, so its statistics-only tables stay warm.
        ``None`` (the statistics changed, or nothing is cached) leaves the
        kernel to lower fresh arrays for the new inputs, which it caches
        for the *next* recompute.
        """
        if new_stats is not self._stats:
            return None
        base = kernel.cached_lowering(
            self._stats, self._load, self._range_selectivity
        ) or newest_cached_arrays(self._stats, self._range_selectivity)
        if base is None:
            recorder.counter("kernel.lowering_cache.misses").add()
            return None
        recorder.counter("kernel.lowering_cache.hits").add()
        if new_load is base.load:
            return base
        with recorder.span("kernel.patch_lowering"):
            return kernel.patch_lowering(base, new_load)

    def _full_rebuild_reason(self, new_stats: PathStatistics) -> str:
        """Why the dirty-row analysis refused to apply."""
        old_stats = self._stats
        if new_stats is not old_stats:
            if new_stats.config != old_stats.config:
                return "cost-model config changed"
            for position in range(1, self.length + 1):
                if new_stats.members(position) != old_stats.members(position):
                    return f"hierarchy membership changed at position {position}"
        return "inputs not analyzable incrementally"

    def _dirty_rows(
        self, new_stats: PathStatistics, new_load: LoadDistribution
    ) -> set[tuple[int, int]] | None:
        """Every row whose inputs changed; ``None`` forces a full recompute.

        The union of the re-priced and CMD-patched sets of
        :meth:`_classify_dirty` (kept as the single-set view the
        benchmarks and tests reason about).
        """
        classified = self._classify_dirty(new_stats, new_load)
        if classified is None:
            return None
        recompute_set, patch_set = classified
        return recompute_set | patch_set

    def _classify_dirty(
        self, new_stats: PathStatistics, new_load: LoadDistribution
    ) -> tuple[set[tuple[int, int]], set[tuple[int, int]]] | None:
        """Split changed rows into (re-price, CMD-patch); ``None`` = full.

        A row lands in the patch set only when the *sole* way the change
        reaches it is the following-deletion mass of its ``CMD`` term —
        any row also dirtied through its own derived load or statistics
        must go through the cost model again.

        The delta reduces to four facts, whatever its size: the largest
        position with changed statistics (rows starting at or before it
        are dirty), the smallest position with a changed query frequency
        (rows ending at or after it), the positions with a changed
        insert or delete frequency (rows covering one), and the row ends
        just before a changed delete frequency (``CMD`` candidates). One
        walk over the row triangle then classifies every row.
        """
        old_stats = self._stats
        old_load = self._load
        length = self.length
        # Sentinels: no stats change sits before position 1, and no
        # query or coverage change after the last position.
        last_stats = 0
        first_query = length + 1
        covered: set[int] = set()
        cmd_ends: set[int] = set()

        if new_stats is not old_stats:
            if new_stats.config != old_stats.config:
                return None
            for position in range(1, length + 1):
                if new_stats.members(position) != old_stats.members(position):
                    return None
            for position in range(1, length + 1):
                for member in new_stats.members(position):
                    if new_stats.stats_of(member) != old_stats.stats_of(member):
                        last_stats = position

        if new_load is not old_load:
            for position in range(1, length + 1):
                for member in old_stats.members(position):
                    old_triplet = old_load.triplet(member)
                    new_triplet = new_load.triplet(member)
                    if new_triplet.query != old_triplet.query:
                        first_query = min(first_query, position)
                    if new_triplet.insert != old_triplet.insert:
                        covered.add(position)
                    if new_triplet.delete != old_triplet.delete:
                        covered.add(position)
                        if position >= 2:
                            cmd_ends.add(position - 1)

        rows = _subpaths(length)
        recompute: set[tuple[int, int]] = set()
        patch: set[tuple[int, int]] = set()
        # Walk the starts backwards so the first covered position at or
        # after ``start`` is a running value.
        next_covered = length + 1
        for start in range(length, 0, -1):
            if start in covered:
                next_covered = start
            # Row (start, end) is dirty iff end >= first_dirty.
            if start <= last_stats:
                first_dirty = start
            else:
                first_dirty = max(start, min(first_query, next_covered))
            # Rows starting at ``start`` sit at rows[first + end - start].
            first = self.row_index(start, start) - start
            recompute.update(rows[first + first_dirty : first + length + 1])
            for end in range(start, first_dirty):
                if end in cmd_ends:
                    patch.add(rows[first + end])
        return recompute, patch

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def row_index(self, start: int, end: int) -> int:
        """The dense row position of subpath ``(start, end)``.

        Rows are laid out in Figure 6 order (by start, then end): all rows
        starting at 1 first, then those starting at 2, and so on.
        """
        offset = (start - 1) * (2 * self.length - start + 2) // 2
        return offset + (end - start)

    def cost(self, start: int, end: int, organization: IndexOrganization) -> float:
        """The processing cost of one subpath with one organization."""
        column = self._column(start, end, organization)
        return self._values[
            self.row_index(start, end) * len(self.organizations) + column
        ]

    def breakdown(
        self, start: int, end: int, organization: IndexOrganization
    ) -> SubpathCost | None:
        """The components of one entry, assembled from the arrays.

        Bounds and organization are checked as in :meth:`cost`; ``None``
        means a literal matrix without breakdowns. SIX and IIX entries
        carry MX and MIX, the cost models that priced them.
        """
        column = self._column(start, end, organization)
        if self._costs is None:
            return None
        row = self.row_index(start, end)
        query, insert, delete, cmd, rate, storage, _total = (
            float(array[row, column]) for array in self._costs
        )
        return SubpathCost(
            canonical_organization(organization), start, end,
            query, insert, delete, cmd,
            storage_pages=storage, cmd_per_deletion=rate,
        )

    def min_cost(self, start: int, end: int) -> RowMinimum:
        """``Min_Cost``: the underlined (minimal) entry of one row.

        O(1): the minima are precomputed at construction.
        """
        self._check_bounds(start, end)
        row = self.row_index(start, end)
        return RowMinimum(
            cost=self._row_min_cost[row],
            organization=self.organizations[self._row_min_org[row]],
        )

    def ranked_organizations(
        self, start: int, end: int, limit: int | None = None
    ) -> tuple[IndexOrganization, ...]:
        """Organizations of one row in ascending cost order.

        The ranking is the iterated ``Min_Cost`` selection: the same
        tie-tolerant scan that picks the row minimum is applied
        repeatedly to the not-yet-ranked columns, so ``ranked[0]`` is
        always exactly :meth:`min_cost`'s organization and entries within
        :data:`TIE_RELATIVE_TOLERANCE` resolve to the earliest column —
        stable across platforms and numerically equivalent
        reformulations of the cost model. ``limit`` truncates the ranking
        to the best ``limit`` organizations.
        """
        self._check_bounds(start, end)
        return self._rankings[self.row_index(start, end)][:limit]

    @cached_property
    def _rankings(self) -> list[tuple[IndexOrganization, ...]]:
        """Every row's :meth:`ranked_organizations`, ranked on first use."""
        eligible = np.ones(self._total.shape, dtype=bool)
        every_row = np.arange(self._total.shape[0])
        ranks = []
        for _ in self.organizations:
            _, column = _column_minima(self._total, eligible)
            eligible[every_row, column] = False
            ranks.append(column)
        return [
            tuple(self.organizations[column] for column in ranked)
            for ranked in np.stack(ranks, axis=1).tolist()
        ]

    def _storage_matrix(self) -> "CostMatrix":
        """A literal matrix of storage pages instead of costs, read by the
        storage-budgeted selectors (budgeted multi-path generation sweeps
        it for a path's *smallest* configurations, which a cost-ranked
        beam never proposes)."""
        if self._costs is None:
            raise OptimizerError(
                "storage-budgeted selection requires a computed cost matrix"
            )
        storage = CostMatrix.__new__(CostMatrix)
        storage._setup(self.length, self.organizations, self._costs.storage, None)
        return storage

    def rows(self) -> list[tuple[int, int]]:
        """Row coordinates in Figure 6 order."""
        return list(_subpaths(self.length))

    def row_count(self) -> int:
        """``n(n+1)/2``."""
        return self.length * (self.length + 1) // 2

    def entry_count(self) -> int:
        """The matrix size the paper quotes: ``|organizations| · n(n+1)/2``."""
        return len(self.organizations) * self.row_count()

    def _check_bounds(self, start: int, end: int) -> None:
        if not 1 <= start <= end <= self.length:
            raise OptimizerError(
                f"subpath ({start},{end}) out of range for length {self.length}"
            )

    def _column(
        self, start: int, end: int, organization: IndexOrganization
    ) -> int:
        """The column of ``organization``, once the row is in range."""
        self._check_bounds(start, end)
        column = self._org_index.get(organization)
        if column is None:
            raise OptimizerError(
                f"no entry for ({start},{end}) with {organization}"
            )
        return column

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def render(self, path=None, precision: int = 2) -> str:
        """Figure 6 / Figure 8 style ASCII rendering with minima marked."""
        header = ["subpath"] + [str(org) for org in self.organizations]
        lines = []
        for start, end in self.rows():
            label = (
                str(path.subpath(start, end)) if path is not None else f"S[{start},{end}]"
            )
            minimum = self.min_cost(start, end)
            cells = [label]
            for organization in self.organizations:
                value = self.cost(start, end, organization)
                text = f"{value:.{precision}f}"
                if organization is minimum.organization:
                    text = f"*{text}*"
                cells.append(text)
            lines.append(cells)
        widths = [
            max(len(row[i]) for row in [header, *lines]) for i in range(len(header))
        ]
        def fmt(row: list[str]) -> str:
            return "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
        separator = "-" * (sum(widths) + 2 * (len(widths) - 1))
        return "\n".join([fmt(header), separator, *(fmt(row) for row in lines)])
