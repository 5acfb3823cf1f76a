"""Columnar lowering of statistics and workload, plus batched primitives.

:class:`StatArrays` flattens a :class:`~repro.costmodel.params.PathStatistics`
and a :class:`~repro.workload.load.LoadDistribution` into contiguous
arrays indexed by a **global member axis**: every hierarchy member of
every position gets one slot ``gm`` (positions ascending, members in
hierarchy order — the exact iteration order of the scalar cost model).
On top of it sit the row-independent tables every organization shares:
probe-key chains, ``nin-bar`` chains, occupancy counts, extent pages and
the NIX parent-chain recurrences.

:class:`ShapeTable` decomposes a list of
:class:`~repro.costmodel.btree_shape.IndexShape` objects into level
arrays so that :func:`crt_batch` / :func:`cmt_batch` / :func:`crr_batch`
/ :func:`range_scan_batch` can evaluate the paper's CRT/CMT/CRR
primitives and the range-predicate leaf walk for many (shape, t) pairs
at once. Per element the arithmetic replays the scalar primitives
(:mod:`repro.costmodel.primitives`) operation for operation — the level
loop accumulates sequentially, clamps use ``min``/``max`` of the same
operands — so batched results are bit-identical to scalar calls.

:func:`fold_segments` is the kernel's accumulation workhorse: it folds
per-segment term lists **sequentially in rank order** (padding with the
fold identity, which never perturbs float bits), reproducing the scalar
cost model's left-to-right accumulation chains exactly.

Lowerings persist: :func:`repro.kernel.lower` keeps a bounded cache of
:class:`StatArrays` on the statistics object (:func:`find_cached_arrays`,
:func:`remember_stat_arrays`), and :meth:`StatArrays.patched` derives the
arrays for a drifted workload from an existing lowering by patching only
the load-derived columns — the stats-derived tables, including the
per-organization shapes and probe/insert tables that accumulate in
``_tables``, are shared by reference across the patch chain.
"""

from __future__ import annotations

import math
import weakref
from typing import NamedTuple

import numpy as np

from repro.costmodel.btree_shape import IndexShape, build_shape
from repro.costmodel.params import PathStatistics
from repro.errors import CostModelError
from repro.kernel.yao_vec import npa_array
from repro.workload.load import LoadDistribution


def fold_segments(
    values: np.ndarray,
    segment: np.ndarray,
    rank: np.ndarray,
    segments: int,
    ranks: int,
    init: np.ndarray | None = None,
    multiply: bool = False,
) -> np.ndarray:
    """Sequential per-segment fold in exact rank order.

    Element ``i`` contributes ``values[i]`` to segment ``segment[i]`` at
    fold position ``rank[i]`` (ranks are dense and unique per segment).
    The fold walks ranks left to right with one vectorized combine per
    rank, so each segment accumulates in exactly the order a scalar loop
    over its terms would — missing ranks are padded with the identity
    (``+0.0`` / ``*1.0``), which leaves IEEE-754 accumulators bit-unchanged.
    """
    identity = 1.0 if multiply else 0.0
    width = max(ranks, 1)
    matrix = np.full((segments, width), identity)
    matrix[segment, rank] = values
    if init is None:
        accumulator = np.full(segments, identity)
    else:
        accumulator = np.array(init, dtype=np.float64, copy=True)
    combine = np.multiply if multiply else np.add
    for position in range(ranks):
        combine(accumulator, matrix[:, position], out=accumulator)
    return accumulator


# ----------------------------------------------------------------------
# shape tables and batched primitives
# ----------------------------------------------------------------------
class ShapeTable:
    """Level-profile decomposition of many index shapes.

    Rows follow the construction order of ``shapes``; all level arrays
    are padded to the deepest shape (padded levels are masked out by
    ``level_count`` during descent).
    """

    def __init__(self, shapes: list[IndexShape]) -> None:
        self.shapes = list(shapes)
        count = len(self.shapes)
        depth = max((len(s.levels) for s in self.shapes), default=0)
        self.max_levels = depth
        self.level_records = np.zeros((count, max(depth, 1)))
        self.level_pages = np.zeros((count, max(depth, 1)))
        self.level_count = np.zeros(count, dtype=np.int64)
        self.record_count = np.zeros(count)
        self.record_pages = np.zeros(count)
        self.height = np.zeros(count, dtype=np.int64)
        self.oversized = np.zeros(count, dtype=bool)
        self.empty = np.zeros(count, dtype=bool)
        for index, shape in enumerate(self.shapes):
            self.level_count[index] = len(shape.levels)
            for level_index, level in enumerate(shape.levels):
                self.level_records[index, level_index] = level.records
                self.level_pages[index, level_index] = level.pages
            self.record_count[index] = shape.record_count
            self.record_pages[index] = float(shape.record_pages)
            self.height[index] = shape.height
            self.oversized[index] = shape.oversized
            self.empty[index] = shape.empty
        # Leaf profile (level 0) for CRR and the NIX SA1/SA2 retrievals.
        self.leaf_records = self.level_records[:, 0].copy()
        self.leaf_pages = self.level_pages[:, 0].copy()

    @classmethod
    def from_params(cls, record_counts, record_lengths, key_sizes, sizes):
        """Batched :func:`~repro.costmodel.btree_shape.build_shape`.

        Builds the level profiles of many shapes directly into table
        arrays — one vectorized level per tree layer — replaying the
        scalar construction's arithmetic (the ``⌊p/ln⌋`` packing, the
        ``max(1.0, …)`` floors, the ``records / fanout`` router chain)
        operation for operation, so every level value is the float the
        per-shape builder would produce. The per-shape ``.shapes`` list
        is not materialized.
        """
        rc = np.asarray(record_counts, dtype=np.float64)
        ln = np.asarray(record_lengths, dtype=np.float64)
        ks = np.asarray(key_sizes, dtype=np.int64)
        count = rc.shape[0]
        if (rc < 0).any():
            raise CostModelError("negative record count in shape batch")
        if ((rc > 0) & (ln <= 0)).any():
            raise CostModelError("non-positive record length in shape batch")
        if (ks <= 0).any():
            raise CostModelError("non-positive key size in shape batch")

        page = float(sizes.page_size)
        pointer = float(sizes.pointer_size)
        empty = rc == 0.0
        occupied = ~empty
        oversized = occupied & (ln > page)
        record_pages = np.where(
            occupied, np.maximum(1.0, np.ceil(ln / page)), 0.0
        )
        # Oversized records live in overflow chains; the structural tree
        # then packs short (key, pointer) stubs.
        structural_length = np.where(oversized, ks + pointer, ln)
        per_page = np.maximum(
            1.0, np.floor_divide(page, np.maximum(structural_length, 1.0))
        )
        leaf_pages = np.maximum(1.0, rc / per_page)
        fanout = np.maximum(
            2, sizes.page_size // (ks + sizes.pointer_size)
        ).astype(np.float64)

        record_columns = [np.where(occupied, rc, 0.0)]
        page_columns = [np.where(occupied, leaf_pages, 0.0)]
        level_count = occupied.astype(np.int64)
        pages = leaf_pages
        active = occupied & (pages > 1.0)
        while active.any():
            records = pages  # one router per child page
            grown = records > fanout
            new_pages = np.where(grown, records / fanout, 1.0)
            record_columns.append(np.where(active, records, 0.0))
            page_columns.append(
                np.where(active, np.maximum(new_pages, 1.0), 0.0)
            )
            level_count = level_count + active
            pages = new_pages
            active = active & (new_pages > 1.0)

        self = cls.__new__(cls)
        self.shapes = None
        depth = len(record_columns)
        self.max_levels = depth
        self.level_records = np.stack(record_columns, axis=1)
        self.level_pages = np.stack(page_columns, axis=1)
        self.level_count = level_count
        self.record_count = rc.astype(np.float64, copy=True)
        self.record_pages = record_pages
        self.height = np.where(
            empty, 1, level_count + oversized.astype(np.int64)
        )
        self.oversized = oversized
        self.empty = empty
        self.leaf_records = self.level_records[:, 0].copy()
        self.leaf_pages = self.level_pages[:, 0].copy()
        return self

    def storage_pages(self) -> np.ndarray:
        """Per-shape storage: leaf pages plus any overflow-chain pages."""
        return np.where(
            self.oversized,
            self.leaf_pages + self.record_count * self.record_pages,
            self.leaf_pages,
        )


def _resolve_pages(table: ShapeTable, select: np.ndarray, override) -> np.ndarray:
    """Record pages per element: the ``pr``/``pm`` override or ``⌈ln/p⌉``."""
    if override is None:
        return table.record_pages[select]
    if np.isscalar(override) or getattr(override, "ndim", 1) == 0:
        return np.full(select.shape, float(override))
    return np.asarray(override, dtype=np.float64)


def _descend_batch(
    table: ShapeTable, select: np.ndarray, t: np.ndarray, active: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Batched ``_descend_sum``: level-by-level Yao sums, leaf upward."""
    total = np.zeros(t.shape)
    leaf_touched = np.zeros(t.shape)
    current = t.copy()
    level_count = table.level_count[select]
    for level_index in range(table.max_levels):
        step = active & (level_count > level_index)
        if not step.any():
            break
        rows = select[step]
        touched = npa_array(
            current[step],
            table.level_records[rows, level_index],
            table.level_pages[rows, level_index],
        )
        if level_index == 0:
            leaf_touched[step] = touched
        total[step] += touched
        current[step] = touched
    return total, leaf_touched


def crt_batch(table: ShapeTable, select: np.ndarray, t, pr=None) -> np.ndarray:
    """Batched ``CRT(shape, t, pr)`` over ``(table row, record count)`` pairs."""
    t = np.minimum(np.asarray(t, dtype=np.float64), table.record_count[select])
    active = ~table.empty[select] & (t > 0.0)
    structural, _ = _descend_batch(table, select, t, active)
    oversized = table.oversized[select] & active
    if not oversized.any():
        return structural
    pages = _resolve_pages(table, select, pr)
    return np.where(oversized, structural + t * pages, structural)


def cmt_batch(table: ShapeTable, select: np.ndarray, t, pm=None) -> np.ndarray:
    """Batched ``CMT(shape, t, pm)``."""
    t = np.minimum(np.asarray(t, dtype=np.float64), table.record_count[select])
    active = ~table.empty[select] & (t > 0.0)
    structural, leaf_touched = _descend_batch(table, select, t, active)
    plain = structural + leaf_touched
    oversized = table.oversized[select] & active
    if not oversized.any():
        return np.where(active, plain, 0.0)
    pages = _resolve_pages(table, select, pm)
    return np.where(
        oversized, structural + 2.0 * t * pages, np.where(active, plain, 0.0)
    )


def crr_batch(
    table: ShapeTable, select: np.ndarray, records, pm=None
) -> np.ndarray:
    """Batched ``CRR(aux_shape, records, pm)``."""
    records = np.minimum(
        np.asarray(records, dtype=np.float64), table.record_count[select]
    )
    active = ~table.empty[select] & (records > 0.0)
    out = np.zeros(records.shape)
    plain = active & ~table.oversized[select]
    if plain.any():
        rows = select[plain]
        out[plain] = npa_array(
            records[plain], table.leaf_records[rows], table.leaf_pages[rows]
        )
    oversized = active & table.oversized[select]
    if oversized.any():
        pages = _resolve_pages(table, select, pm)
        out[oversized] = records[oversized] * pages[oversized]
    return out


def range_scan_batch(
    table: ShapeTable, select: np.ndarray, selectivity: float, pr=None
) -> np.ndarray:
    """Batched :func:`~repro.costmodel.ranges.range_scan_cost` over table
    rows: one descent, a contiguous leaf walk and, for oversized records,
    ``pr`` pages per touched record."""
    oversized = table.oversized[select]
    descent = (table.height[select] - oversized).astype(np.float64)
    leaves = np.maximum(1.0, np.ceil(selectivity * table.leaf_pages[select]))
    cost = descent + (leaves - 1.0)
    if oversized.any():
        records = np.maximum(1.0, selectivity * table.record_count[select])
        pages = _resolve_pages(table, select, pr)
        cost = np.where(oversized, cost + records * pages, cost)
    return np.where(table.empty[select] | (selectivity == 0.0), 0.0, cost)


def cml_batch(table: ShapeTable, pm=None) -> np.ndarray:
    """Batched ``CML(shape, pm)`` over all table rows."""
    height = table.height.astype(np.float64)
    if pm is None:
        pages = table.record_pages
    elif np.isscalar(pm) or getattr(pm, "ndim", 1) == 0:
        pages = np.full(height.shape, float(pm))
    else:
        pages = np.asarray(pm, dtype=np.float64)
    plain = height + 1.0
    overflow = (height - 1.0) + 2.0 * pages
    return np.where(
        table.empty, 0.0, np.where(table.oversized, overflow, plain)
    )


# ----------------------------------------------------------------------
# statistics lowering
# ----------------------------------------------------------------------
class NixChains(NamedTuple):
    """The NIX parent chains of one lowering (:meth:`StatArrays.nix_chains`).

    ``parents_prefix[p, k]`` / ``narp_prefix[p, k]`` fold the first ``k``
    terms of position ``p``'s chain (levels ``p-1`` downward) in the
    scalar order; ``narp_code[p, level]`` indexes the distinct
    ``narp_values``.
    """

    parents_prefix: np.ndarray
    narp_prefix: np.ndarray
    narp_values: np.ndarray
    narp_code: np.ndarray


class StatArrays:
    """Per-position/per-member arrays lowered from the scalar inputs.

    All quantities are computed through the statistics object's own
    accessors (which memoize), so the lowered values are the very floats
    the scalar cost model reads.
    """

    def __init__(
        self,
        stats: PathStatistics,
        load: LoadDistribution,
        range_selectivity: float | None = None,
    ) -> None:
        if range_selectivity is not None and not 0.0 <= range_selectivity <= 1.0:
            raise CostModelError(f"selectivity out of [0,1]: {range_selectivity}")
        # A lowering lives in its statistics' cache, so a strong reference
        # back would put every cached PathStatistics in a reference cycle
        # that only the cyclic collector frees, arrays and all.
        self._stats = weakref.ref(stats)
        self.load = load
        self.config = stats.config
        self.sizes = stats.config.sizes
        self.range_selectivity = range_selectivity
        length = stats.length
        self.length = length

        # -- global member axis ----------------------------------------
        self.members = [()] + [stats.members(p) for p in range(1, length + 1)]
        self.member_offset = [0] * (length + 2)
        names: list[str] = []
        positions: list[int] = []
        for position in range(1, length + 1):
            self.member_offset[position] = len(names)
            for name in self.members[position]:
                names.append(name)
                positions.append(position)
        self.member_offset[length + 1] = len(names)
        self.member_names = names
        self.member_position = np.array(positions, dtype=np.int64)
        self.member_count = len(names)

        # -- per-member statistics and load ----------------------------
        count = self.member_count
        self.objects = np.zeros(count)
        self.nin = np.zeros(count)
        self.alpha = np.zeros(count)
        self.beta = np.zeros(count)
        self.gamma = np.zeros(count)
        for gm, name in enumerate(names):
            per_class = stats.stats_of(name)
            self.objects[gm] = per_class.objects
            self.nin[gm] = per_class.fanout
            triplet = load.triplet(name)
            self.alpha[gm] = triplet.query
            self.beta[gm] = triplet.insert
            self.gamma[gm] = triplet.delete

        # -- per-position aggregates -----------------------------------
        self.total_objects = [0.0] * (length + 1)
        self.sum_k = [0.0] * (length + 1)
        self.distinct_union = [0.0] * (length + 1)
        self.nc = [0] * (length + 1)
        for position in range(1, length + 1):
            self.total_objects[position] = stats.total_objects(position)
            self.sum_k[position] = stats.sum_k(position)
            self.distinct_union[position] = stats.distinct_union(position)
            self.nc[position] = stats.nc(position)

        # -- upstream query mass (Section 3.2 subpath derivation) ------
        self.upstream = [0.0] * (length + 2)
        for start in range(1, length + 1):
            self.upstream[start] = load._upstream_query(start)

        # -- probe fan-in and following deletions per end --------------
        initial = 1.0
        if range_selectivity is not None:
            initial = max(
                1.0, range_selectivity * stats.distinct_union(length)
            )
        self.probe_initial = initial
        self.probes = [1.0] * (length + 1)
        self.following = [0.0] * (length + 1)
        for end in range(1, length + 1):
            if end < length:
                self.probes[end] = stats.probe_keys(end, length, initial)
                self.following[end] = sum(
                    load.triplet(member).delete
                    for member in stats.members(end + 1)
                )
        # keys[level][end]: values probed in a level index of a subpath
        # ending at ``end`` (keys[end][end] is the row's probe fan-in).
        # probe_keys(level, end, x) folds levels end..level+1 descending,
        # so each column extends the entry above by one (multiply,
        # clamp) step — the same left fold the scalar loop runs.
        clamp = self.config.clamp_cardinalities
        self.keys = [[0.0] * (length + 1) for _ in range(length + 1)]
        for end in range(1, length + 1):
            value = self.probes[end]
            self.keys[end][end] = value
            for level in range(end - 1, 0, -1):
                value = value * self.sum_k[level + 1]
                if clamp:
                    cap = self.total_objects[level + 1]
                    if value > cap:
                        value = cap
                self.keys[level][end] = value

        # -- nin-bar chains and occupancy ------------------------------
        self.mean_fanout = [0.0] * (length + 1)
        for position in range(1, length + 1):
            self.mean_fanout[position] = stats.mean_fanout(position)
        # ninbar(p, j, e) is a left fold of mean fanouts over p+1..e with a
        # final cap; extending the fold one level at a time reproduces the
        # scalar loop's multiply order exactly, so the capped values are
        # the very floats stats.ninbar would return.
        self.ninbar = np.zeros((count, length + 1))
        for gm in range(count):
            position = int(self.member_position[gm])
            running = self.nin[gm]
            for end in range(position, length + 1):
                if end > position:
                    running = running * self.mean_fanout[end]
                cap = self.distinct_union[end]
                self.ninbar[gm, end] = min(running, cap) if cap > 0 else running
        self.occupied_next = np.zeros(count)
        for gm, name in enumerate(names):
            position = int(self.member_position[gm])
            if position < length:
                self.occupied_next[gm] = stats.occupied_members(
                    position + 1, self.nin[gm]
                )

        # -- extent pages (no-index scans, NX intermediate levels) -----
        per_page = max(
            1,
            self.sizes.page_size
            // (self.sizes.object_size + self.sizes.object_overhead_size),
        )
        self.extent_pages = np.zeros(count)
        for gm in range(count):
            objects = self.objects[gm]
            if objects > 0:
                self.extent_pages[gm] = float(math.ceil(objects / per_page))
        # Root-extent pages per starting position (NX revalidation).
        self.root_extent_pages = [0.0] * (length + 1)
        for position in range(1, length + 1):
            self.root_extent_pages[position] = sum(
                math.ceil(self.stats.n(position, member) / per_page)
                for member in self.members[position]
                if self.stats.n(position, member) > 0
            )

        # -- NIX parent chains (row-independent (position, level) pairs)
        # parents[p][lev] follows the scalar recurrence of
        # NIXCostModel.delete_cost exactly, including the restart-at-1.0
        # behaviour when a level's fan-in is zero.
        self.parents = [[0.0] * (length + 1) for _ in range(length + 1)]
        self.narp = [[0.0] * (length + 1) for _ in range(length + 1)]
        clamp = self.config.clamp_cardinalities
        for position in range(1, length + 1):
            running = 0.0
            for level in range(position - 1, 0, -1):
                running = (running if running > 0 else 1.0) * self.sum_k[level]
                if clamp:
                    running = min(running, self.total_objects[level])
                self.parents[position][level] = running
                self.narp[position][level] = stats.occupied_members(
                    level, running
                )

        # -- index key lengths (lazy, see key_size_at) -----------------
        self._key_sizes = [0] * (length + 1)

        # -- NIX delpoint subtotals: Σ_j nin-bar per (position, end) ---
        self.nix_subtotal = [[0.0] * (length + 1) for _ in range(length + 1)]
        for position in range(1, length + 1):
            base = self.member_offset[position]
            width = len(self.members[position])
            for end in range(position, length + 1):
                subtotal = 0.0
                for offset in range(width):
                    subtotal += self.ninbar[base + offset, end]
                self.nix_subtotal[position][end] = subtotal

        # -- cross-call caches ------------------------------------------
        # _tables holds stats-derived, row-independent tables (per-end
        # probe columns, insert/interior vectors, storage term lists,
        # the extent-scan table); patched clones share it by reference.
        # _units memoizes per-(organization, rows) evaluation units —
        # per-entry probe/insert/delete costs plus per-row CMD rates and
        # storage sums — which are statistics-only (the workload enters
        # the formulas exclusively through the frequency folds), so
        # patched clones share it by reference too, and a suffix path's
        # lowering is seeded from its longest path's
        # (repro.kernel.evaluate.adopt_suffix_units). Bounded FIFO.
        self._tables: dict = {}
        self._units: dict = {}

    @property
    def stats(self) -> PathStatistics:
        """The statistics this lowering was built from."""
        return self._stats()

    # ------------------------------------------------------------------
    # cross-call caches and workload patching
    # ------------------------------------------------------------------
    def cached_table(self, key, build):
        """Row-independent table memo (stats-derived values only).

        Entries must depend on nothing but the statistics, the physical
        configuration and ``range_selectivity`` — :meth:`patched` clones
        share this dict by reference, so a load-dependent entry here
        would leak stale costs across workloads.
        """
        table = self._tables.get(key)
        if table is None:
            table = build()
            self._tables[key] = table
        return table

    def cached_units(self, key, build):
        """Per-(organization, rows) evaluation-unit memo, bounded FIFO.

        Same statistics-only contract as :meth:`cached_table` — the
        cached arrays are the pre-fold units of one organization over
        one row set, reused verbatim under any drifted workload. Kept
        apart from ``_tables`` so eviction never drops the small
        per-end columns that every row set shares.
        """
        units = self._units.get(key)
        if units is None:
            units = build()
            if len(self._units) >= _UNITS_CACHE_LIMIT:
                self._units.pop(next(iter(self._units)))
            self._units[key] = units
        return units

    def patched(self, load: LoadDistribution) -> "StatArrays":
        """The lowering for the same statistics under a drifted workload.

        Every stats-derived field — including the accumulated ``_tables``
        and ``_units`` memos — is shared by reference; only the
        load-derived columns are
        rebuilt: α/β/γ are patched at the member slots whose triplets
        moved, then the upstream-query and following-deletion chains are
        re-derived through the workload's own accessors, so every value
        is the very float a from-scratch lowering would produce.
        """
        clone = StatArrays.__new__(StatArrays)
        clone.__dict__.update(self.__dict__)
        clone.load = load
        alpha = self.alpha.copy()
        beta = self.beta.copy()
        gamma = self.gamma.copy()
        for gm, name in enumerate(self.member_names):
            triplet = load.triplet(name)
            alpha[gm] = triplet.query
            beta[gm] = triplet.insert
            gamma[gm] = triplet.delete
        clone.alpha = alpha
        clone.beta = beta
        clone.gamma = gamma
        length = self.length
        upstream = [0.0] * (length + 2)
        for start in range(1, length + 1):
            upstream[start] = load._upstream_query(start)
        clone.upstream = upstream
        following = [0.0] * (length + 1)
        for end in range(1, length):
            following[end] = sum(
                load.triplet(member).delete
                for member in self.members[end + 1]
            )
        clone.following = following
        return clone

    def nix_chains(self) -> "NixChains":
        """Prefix folds and value codes of the NIX parent chains.

        A deletion at position ``p`` of a subpath starting at ``s`` walks
        the chain of levels ``p-1`` down to ``s+1``; every term of that
        walk depends on ``p`` and the level only, so the chain of length
        ``k = p - s - 1`` is the first ``k`` terms of one per-position
        sequence. Stats-only, built once per lowering.
        """
        return self.cached_table("nix_chains", self._build_nix_chains)

    def _build_nix_chains(self) -> "NixChains":
        length = self.length
        parents = np.array(self.parents)
        narp = np.array(self.narp)
        # [p, k]: the scalar's left fold of the first k chain terms.
        parents_prefix = np.zeros((length + 1, max(length, 1)))
        narp_prefix = np.zeros((length + 1, max(length, 1)))
        for k in range(1, length):
            positions = np.arange(k + 1, length + 1)
            parents_prefix[k + 1 :, k] = (
                parents_prefix[k + 1 :, k - 1] + parents[positions, positions - k]
            )
            narp_prefix[k + 1 :, k] = (
                narp_prefix[k + 1 :, k - 1] + narp[positions, positions - k]
            )
        below = np.tri(length + 1, k=-1, dtype=bool)
        below[0] = False
        below[:, 0] = False
        narp_values, codes = np.unique(narp[below], return_inverse=True)
        narp_code = np.zeros((length + 1, length + 1), dtype=np.intp)
        narp_code[below] = codes
        return NixChains(parents_prefix, narp_prefix, narp_values, narp_code)

    # ------------------------------------------------------------------
    # geometry helpers (mirroring SubpathCostModel)
    # ------------------------------------------------------------------
    def key_size_at(self, position: int) -> int:
        """Key length of an index on ``A_position``."""
        cached = self._key_sizes[position]
        if cached == 0:
            attribute = self.stats.path.attribute_def_at(position)
            cached = self.sizes.key_size(atomic=attribute.is_atomic)
            self._key_sizes[position] = cached
        return cached

    def nix_entry_size(self, position: int) -> int:
        """NIX oid entry size: ``(oid, numchild)`` for multi-valued."""
        attribute = self.stats.path.attribute_def_at(position)
        if attribute.multi_valued:
            return self.sizes.oid_size + self.sizes.numchild_size
        return self.sizes.oid_size

    # ------------------------------------------------------------------
    # shared (subpath-independent) shapes
    # ------------------------------------------------------------------
    # Built from the statistics, never read from their scalar shape cache:
    # the kernel and the scalar parity oracle each derive their own shapes,
    # so a parity check compares two derivations. The kernel memoizes them
    # in its table cache (``mx_shapes``/``mix_shapes``).
    def mx_shape(self, position: int, name: str) -> IndexShape:
        """The MX shape of class ``name``'s index on ``A_position``."""
        sizes = self.sizes
        stats = self.stats
        record_length = (
            sizes.record_header_size
            + self.key_size_at(position)
            + stats.k(position, name) * sizes.oid_size
        )
        return build_shape(
            record_count=stats.d(position, name),
            record_length=record_length,
            key_size=self.key_size_at(position),
            sizes=sizes,
        )

    def mix_shape(self, position: int) -> IndexShape:
        """The MIX shape of the hierarchy index on ``A_position``."""
        sizes = self.sizes
        stats = self.stats
        record_length = (
            sizes.record_header_size
            + self.key_size_at(position)
            + stats.nc(position) * sizes.class_directory_entry_size
            + stats.sum_k(position) * sizes.oid_size
        )
        return build_shape(
            record_count=stats.distinct_union(position),
            record_length=record_length,
            key_size=self.key_size_at(position),
            sizes=sizes,
        )


# ----------------------------------------------------------------------
# persistent lowering cache (lives on the statistics object)
# ----------------------------------------------------------------------
# A handful of entries covers the real access patterns: a session loop
# patches one lowering per step (the previous step's entry is the hit),
# and a what-if explorer toggles between a few candidate workloads.
_ARRAYS_CACHE_LIMIT = 4
_UNITS_CACHE_LIMIT = 64


def find_cached_arrays(
    stats: PathStatistics,
    load: LoadDistribution,
    range_selectivity: float | None = None,
) -> StatArrays | None:
    """The cached lowering for exactly (stats, load, selectivity), if any."""
    for arrays in reversed(stats._stat_arrays_cache):
        if arrays.load is load and arrays.range_selectivity == range_selectivity:
            return arrays
    return None


def newest_cached_arrays(
    stats: PathStatistics, range_selectivity: float | None = None
) -> StatArrays | None:
    """The most recently cached lowering of ``stats`` at this selectivity,
    under whatever workload, if any.

    A workload patch (:meth:`StatArrays.patched`) rewrites every
    load-derived column, so any such lowering is a valid base to patch
    once the exact one has been evicted.
    """
    for arrays in reversed(stats._stat_arrays_cache):
        if arrays.range_selectivity == range_selectivity:
            return arrays
    return None


def remember_stat_arrays(arrays: StatArrays) -> None:
    """Retain one lowering in its statistics object's bounded cache."""
    cache = arrays.stats._stat_arrays_cache
    cache.append(arrays)
    if len(cache) > _ARRAYS_CACHE_LIMIT:
        del cache[: len(cache) - _ARRAYS_CACHE_LIMIT]
