"""Batched evaluation of matrix rows: the columnar kernel core.

:func:`evaluate_rows` prices a set of ``Cost_Matrix`` rows for a set of
organizations in one pass and returns them as :class:`RowCosts`, one
float64 array per cost component. Rows and their (position, member)
entries are flattened into index arrays once (:class:`_RowBatch`); each
organization is then evaluated as a handful of batched CRT/CMT/CRR calls
plus :func:`~repro.kernel.arrays.fold_segments` accumulations that replay
the scalar cost model's left-to-right sums **in the same order**, so every
matrix value is bit-identical to
:func:`repro.costmodel.subpath.subpath_processing_cost`.

Masked terms are padded with ``+0.0`` (all accumulators and terms are
non-negative, so ``x + 0.0`` leaves the bits unchanged) and per-row
scalar tails (index heights, storage sums) run through the very scalar
primitives the scalar cost model uses. Under a range predicate, rows
ending at the path's last attribute price their ending index as a
contiguous leaf walk (:func:`~repro.costmodel.ranges.range_scan_cost`,
batched as :func:`~repro.kernel.arrays.range_scan_batch`) in the same
batch as every other row.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.costmodel.primitives import cml, cmt, crt
from repro.costmodel.ranges import range_scan_cost
from repro.kernel.arrays import (
    ShapeTable,
    StatArrays,
    cml_batch,
    cmt_batch,
    crr_batch,
    crt_batch,
    fold_segments,
    get_stat_arrays,
    range_scan_batch,
)
from repro.kernel.yao_vec import npa_array
from repro.obs.recorder import NULL_RECORDER
from repro.organizations import IndexOrganization, canonical_organization


class RowCosts(NamedTuple):
    """Priced matrix rows: one ``(rows × organizations)`` float64 array
    per cost component, rows in request order and columns in
    organization order.

    ``rate`` is the per-deletion ``CMD`` rate (statistics-only; ``0.0``
    on rows ending at the path's last position) and ``total`` is the
    matrix entry (see :func:`cmd_and_total`).
    """

    query: np.ndarray
    insert: np.ndarray
    delete: np.ndarray
    cmd: np.ndarray
    rate: np.ndarray
    storage: np.ndarray
    total: np.ndarray

    @classmethod
    def zeros(cls, rows: int, columns: int) -> "RowCosts":
        return cls(*(np.zeros((rows, columns)) for _ in cls._fields))

    def write(self, rows, source: "RowCosts") -> None:
        """Copy ``source``'s rows into the rows selected by ``rows``."""
        for target, values in zip(self, source):
            target[rows] = values

    def put(self, row: int, column: int, cost) -> None:
        """Write one scalar :class:`~repro.costmodel.subpath.SubpathCost`."""
        values = (
            cost.query, cost.insert, cost.delete, cost.cmd,
            cost.cmd_per_deletion, cost.storage_pages, cost.total,
        )
        for target, value in zip(self, values):
            target[row, column] = value


def cmd_and_total(query, insert, delete, rate, following):
    """``(cmd, total)`` of priced entries under a following-deletion mass.

    ``cmd`` is ``following · rate`` behind the scalar model's zero-rate
    guard (a zero rate charges nothing, whatever the mass), and ``total``
    adds ``((query + insert) + delete) + cmd`` — the order of
    :attr:`~repro.costmodel.subpath.SubpathCost.total` — so both are
    bit-identical to :func:`subpath_processing_cost`. ``following``
    broadcasts against ``rate`` (one mass per row).
    """
    cmd = np.zeros(rate.shape)
    charged = rate != 0.0
    cmd[charged] = np.broadcast_to(following, rate.shape)[charged] * rate[charged]
    return cmd, ((query + insert) + delete) + cmd


def evaluate_rows(
    stats,
    load,
    organizations,
    rows,
    range_selectivity=None,
    arrays=None,
    recorder=NULL_RECORDER,
) -> RowCosts:
    """Price ``rows`` for every organization; see :func:`repro.kernel.compute_rows`.

    ``arrays`` short-circuits the lowering: callers holding a (possibly
    patched) :class:`StatArrays` for exactly these inputs pass it in;
    otherwise the persistent cache on ``stats`` is consulted.
    ``recorder`` times each canonical organization in its own
    ``kernel.fold.<organization>`` span and counts the priced (row,
    organization) entries in ``kernel.entries``.
    """
    organizations = list(organizations)
    recorder.counter("kernel.entries").add(len(rows) * len(organizations))
    priced = RowCosts.zeros(len(rows), len(organizations))
    if not rows:
        return priced

    if arrays is None:
        arrays = get_stat_arrays(stats, load, range_selectivity)
    # SIX/IIX share MX/MIX's pricing, so each canonical organization is
    # evaluated once and its columns are written for every alias that
    # requested it.
    canonicals = list(dict.fromkeys(map(canonical_organization, organizations)))
    batch = _RowBatch(arrays, [(int(start), int(end)) for start, end in rows])
    ends = batch.erow
    following = np.array(arrays.following)[ends]
    for canonical in canonicals:
        with recorder.span(
            f"kernel.fold.{canonical.value.lower()}", rows=len(rows)
        ):
            query, insert, delete, cmd_rate, storage = batch.evaluate(canonical)
            rate = np.where(ends < stats.length, cmd_rate, 0.0)
            cmd, total = cmd_and_total(query, insert, delete, rate, following)
            components = (query, insert, delete, cmd, rate, storage, total)
            for column, organization in enumerate(organizations):
                if canonical_organization(organization) is canonical:
                    for target, values in zip(priced, components):
                        target[:, column] = values
    return priced


def _full_build_rows(length: int):
    """The rows a full :meth:`~repro.core.cost_matrix.CostMatrix.compute`
    hands the kernel, in Figure 6 order: ``(starts, ends)`` arrays and the
    key its units are memoized under."""
    starts, ends = np.triu_indices(length)
    starts, ends = starts + 1, ends + 1
    return starts, ends, tuple(zip(starts.tolist(), ends.tolist()))


def adopt_suffix_units(source: StatArrays, offset: int, lower) -> int:
    """Seed a suffix path's unit memo with its longest path's units.

    ``source`` is the lowering of a path whose full build already ran in
    this process; ``lower()`` returns the lowering of a suffix of that
    path at ``offset``: its position ``p`` is the source's ``p +
    offset``, both end at the same attribute, and the classes, attribute
    definitions, hierarchies, class statistics, cost-model configuration
    and range selectivity agree. A row's statistics-only units read only
    the row's own positions and the probe fan-in from its end to the
    path's end, so the suffix's row ``(s, e)`` has the very units of the
    source's row ``(s + offset, e + offset)``.

    For each canonical organization whose units over a full build's rows
    sit in the source's memo, the suffix's memo receives the per-entry
    units, per-row CMD rates and storage sums gathered at the shifted
    rows, under the key a full build of the suffix looks up; that build
    then pays only its own α/β/γ folds. ``lower`` is called only when
    there is something to adopt. Returns the number of (row,
    organization) unit sets adopted: ``0`` when the source's rows were
    priced in worker processes, or the suffix already holds the units.
    """
    starts, ends, source_rows = _full_build_rows(source.length)
    canonicals = dict.fromkeys(map(canonical_organization, IndexOrganization))
    found = []
    for organization in canonicals:
        units = source._units.get((organization, source_rows))
        if units is not None:
            found.append((organization, units))
    if not found:
        return 0
    target_starts, target_ends, target_rows = _full_build_rows(
        source.length - offset
    )
    target = lower()
    row_of = np.zeros((source.length + 1, source.length + 1), dtype=np.int64)
    row_of[starts, ends] = np.arange(len(source_rows))
    picks = row_of[target_starts + offset, target_ends + offset]
    # A row's entries are its positions' hierarchy members, the rows laid
    # out back to back as _RowBatch flattens them.
    member_offset = np.array(source.member_offset)
    counts = member_offset[ends + 1] - member_offset[starts]
    first = np.cumsum(counts) - counts
    taken = counts[picks]
    entries = np.arange(taken.sum()) + np.repeat(
        first[picks] - (np.cumsum(taken) - taken), taken
    )

    def gather(units):
        unit_q, unit_i, unit_d, cmd_rate, storage = units
        return (
            unit_q[entries], unit_i[entries], unit_d[entries],
            cmd_rate[picks], storage[picks],
        )

    adopted = 0
    for organization, units in found:
        key = (organization, target_rows)
        if key not in target._units:
            target.cached_units(key, lambda units=units: gather(units))
            adopted += len(target_rows)
    return adopted


class _RowBatch:
    """Index arrays over the batch's rows, (row, position) pairs and
    (row, position, member) entries, in the scalar iteration order."""

    def __init__(self, arrays: StatArrays, rows: list[tuple[int, int]]) -> None:
        self.arrays = arrays
        self.rows = rows
        self.rows_key = tuple(rows)
        a = arrays
        length = a.length
        count = len(rows)
        self.row_count = count
        self.srow = np.array([r[0] for r in rows], dtype=np.int64)
        self.erow = np.array([r[1] for r in rows], dtype=np.int64)
        m_counts = np.array(
            [0] + [len(a.members[p]) for p in range(1, length + 1)],
            dtype=np.int64,
        )
        self.m_counts = m_counts
        offset_np = np.array(a.member_offset[: length + 2], dtype=np.int64)

        # -- (row, position) pairs, positions ascending per row --------
        spans = self.erow - self.srow + 1
        pair_count = int(spans.sum())
        self.pair_count = pair_count
        pair_row = np.repeat(np.arange(count), spans)
        pair_offsets = np.concatenate(([0], np.cumsum(spans)[:-1]))
        pair_pos = (
            np.arange(pair_count) - pair_offsets[pair_row] + self.srow[pair_row]
        )
        self.pair_row = pair_row
        self.pair_pos = pair_pos

        # -- (row, position, member) entries, members in hierarchy order
        per_pair = m_counts[pair_pos]
        entry_count = int(per_pair.sum())
        self.entry_count = entry_count
        entry_pair = np.repeat(np.arange(pair_count), per_pair)
        entry_offsets = np.concatenate(([0], np.cumsum(per_pair)[:-1]))
        within = np.arange(entry_count) - entry_offsets[entry_pair]
        self.entry_pair = entry_pair
        self.entry_row = pair_row[entry_pair]
        self.entry_pos = pair_pos[entry_pair]
        self.entry_gm = offset_np[self.entry_pos] + within
        row_entry_counts = np.bincount(
            self.entry_row, minlength=count
        ).astype(np.int64)
        row_entry_offsets = np.concatenate(
            ([0], np.cumsum(row_entry_counts)[:-1])
        )
        self.entry_rank = np.arange(entry_count) - row_entry_offsets[self.entry_row]
        self.max_entry_rank = int(row_entry_counts.max())
        self.entry_start = self.srow[self.entry_row]
        self.entry_end = self.erow[self.entry_row]

        # -- per-entry statistics and derived load ---------------------
        probes_np = np.array(a.probes)
        self.probes_row = probes_np[self.erow]
        # Under a range predicate, rows ending at the path's last attribute
        # scan a contiguous key range of their ending index.
        self.ranged = (self.erow == length) & (a.range_selectivity is not None)
        self.ninbar_entry = a.ninbar[self.entry_gm, self.entry_end]
        alpha = a.alpha[self.entry_gm].copy()
        root_gm = np.zeros(length + 1, dtype=np.int64)
        for position in range(1, length + 1):
            root = a.stats.path.class_at(position)
            root_gm[position] = a.member_offset[position] + a.members[
                position
            ].index(root)
        upstream_np = np.array(a.upstream[: length + 2])
        mask = (
            (self.entry_pos == self.entry_start)
            & (self.entry_start > 1)
            & (self.entry_gm == root_gm[self.entry_pos])
        )
        alpha[mask] = alpha[mask] + upstream_np[self.entry_start[mask]]
        self.alpha_entry = alpha
        self.beta_entry = a.beta[self.entry_gm]
        self.gamma_entry = a.gamma[self.entry_gm]
        self.key_row = np.array(
            [0] + [a.key_size_at(p) for p in range(1, length + 1)],
            dtype=np.int64,
        )[self.erow]

    # ------------------------------------------------------------------
    # shared machinery
    # ------------------------------------------------------------------
    def _package(self, unit_q, unit_i, unit_d):
        """Fold per-entry units into per-row sums in entry-rank order."""
        count = self.row_count
        ranks = self.max_entry_rank
        query = fold_segments(
            self.alpha_entry * unit_q, self.entry_row, self.entry_rank, count, ranks
        )
        insert = fold_segments(
            self.beta_entry * unit_i, self.entry_row, self.entry_rank, count, ranks
        )
        delete = fold_segments(
            self.gamma_entry * unit_d, self.entry_row, self.entry_rank, count, ranks
        )
        return query, insert, delete

    def _storage_walk(self, term) -> np.ndarray:
        """Per-row storage sums via the shared prefix over positions.

        ``term(position)`` returns the ordered scalar storage terms of one
        position; rows sharing a start accumulate the same left fold, so
        the walk extends one running sum per start — the exact partial
        sums of the scalar per-row loops.
        """
        storage = np.zeros(self.row_count)
        by_start: dict[int, list[int]] = {}
        for index, (start, end) in enumerate(self.rows):
            by_start.setdefault(start, []).append(index)
        term_cache: dict[int, list[float]] = {}
        for start, indices in by_start.items():
            indices.sort(key=lambda i: self.rows[i][1])
            running = 0.0
            position = start
            for index in indices:
                end = self.rows[index][1]
                while position <= end:
                    terms = term_cache.get(position)
                    if terms is None:
                        terms = term(position)
                        term_cache[position] = terms
                    for value in terms:
                        running += value
                    position += 1
                storage[index] = running
        return storage

    def _level_query(self, shape, level: int, end: int, pr) -> float:
        """One probe of a level-``level`` index on a row ending at ``end``:
        ``CRT`` over the level's probe count, or, on a range-ending row,
        the ending level's leaf walk and the interior levels' oid fan-in
        of the matched values (``probes[level]``)."""
        a = self.arrays
        if a.range_selectivity is None or end < a.length:
            return crt(shape, a.keys[level][end], pr)
        if level == end:
            return range_scan_cost(shape, a.range_selectivity, pr)
        return crt(shape, a.probes[level], pr)

    def _row_queries(self, table: ShapeTable, pr) -> np.ndarray:
        """Per-row retrieval through each row's one index (``table`` has
        one shape per row): ``CRT`` over the row's probe fan-in, or a
        range scan on range-ending rows."""
        queries = crt_batch(table, np.arange(self.row_count), self.probes_row, pr)
        if self.ranged.any():
            queries[self.ranged] = range_scan_batch(
                table, np.flatnonzero(self.ranged),
                self.arrays.range_selectivity, pr,
            )
        return queries

    def _scan_costs(self) -> np.ndarray:
        """``Q[gm, e]``: extent-scan cost of querying member ``gm`` on a
        subpath ending at ``e`` (the no-index and NX-interior formula).
        Stats-only, so it persists in the lowering's table cache."""
        return self.arrays.cached_table("scan", self._build_scan_table)

    def _build_scan_table(self) -> np.ndarray:
        a = self.arrays
        length = a.length
        count = a.member_count
        table = np.zeros((count, length + 1))
        extents = a.extent_pages
        positions = a.member_position
        for end in range(1, length + 1):
            column = table[:, end - 1].copy()
            for gm in range(a.member_offset[end], a.member_offset[end + 1]):
                column = column + extents[gm]
            at_end = positions == end
            column[at_end] = extents[at_end]
            column[positions > end] = 0.0
            table[:, end] = column
        return table

    def evaluate(self, organization: IndexOrganization):
        """Price this batch's rows for one canonical organization.

        The per-entry units (one probe / one insertion / one deletion of
        one hierarchy member) and the per-row CMD rates and storage sums
        are **statistics-only** — the workload enters the cost formulas
        exclusively through the final α/β/γ frequency folds. They are
        therefore memoized per (organization, rows) in the lowering's
        shared table cache, which patched clones carry across workload
        drifts: a warm dirty-slice re-evaluation pays only the three
        frequency folds below.
        """
        method = {
            IndexOrganization.MX: self.mx,
            IndexOrganization.MIX: self.mix,
            IndexOrganization.NIX: self.nix,
            IndexOrganization.PX: self.px,
            IndexOrganization.NX: self.nx,
            IndexOrganization.NONE: self.none,
        }[organization]
        unit_q, unit_i, unit_d, cmd_rate, storage = self.arrays.cached_units(
            (organization, self.rows_key), method
        )
        query, insert, delete = self._package(unit_q, unit_i, unit_d)
        return query, insert, delete, cmd_rate, storage

    # ------------------------------------------------------------------
    # organizations
    # ------------------------------------------------------------------
    def mx(self):
        a = self.arrays
        length = a.length
        count = a.member_count
        shapes = a.cached_table("mx_shapes", self._mx_shapes)
        ends = sorted({int(end) for end in self.erow})
        # C[gm, e]: one probe of member gm's index on a row ending at e
        # (keys[e][e] is the row's probe fan-in, so the ending level and
        # the interior levels share the table).
        table_c = np.zeros((count, length + 1))
        # T[p, e]: the ending + interior levels above a target at p,
        # accumulated in the scalar level-descending member order.
        table_t = np.zeros((length + 2, length + 1))
        cmd_table = np.zeros(length + 1)
        for end in ends:
            c_col, t_col, cmd = a.cached_table(
                ("mx", end), lambda e=end: self._mx_column(shapes, e)
            )
            table_c[:, end] = c_col
            table_t[:, end] = t_col
            cmd_table[end] = cmd
        unit_q = (
            table_t[self.entry_pos, self.entry_end]
            + table_c[self.entry_gm, self.entry_end]
        )

        inserts, interior = a.cached_table(
            "mx_inserts", lambda: self._mx_inserts(shapes)
        )
        unit_i = inserts[self.entry_gm]
        unit_d = np.where(
            self.entry_pos > self.entry_start,
            interior[self.entry_gm],
            inserts[self.entry_gm],
        )
        cmd_rate = cmd_table[self.erow]

        def storage_terms(position: int) -> list[float]:
            def build() -> list[float]:
                terms = []
                base = a.member_offset[position]
                for offset in range(len(a.members[position])):
                    shape = shapes[base + offset]
                    terms.append(shape.leaf_pages * 1)
                    if shape.oversized:
                        terms.append(shape.record_count * shape.record_pages)
                return terms

            return a.cached_table(("mx_storage", position), build)

        storage = self._storage_walk(storage_terms)
        return unit_q, unit_i, unit_d, cmd_rate, storage

    def _mx_shapes(self) -> list:
        a = self.arrays
        return [
            a.mx_shape(int(a.member_position[gm]), name)
            for gm, name in enumerate(a.member_names)
        ]

    def _mx_column(self, shapes, end: int):
        """One end's (C column, T column, CMD rate) — the exact scalar
        loop of the scalar cost model, level-descending member order."""
        a = self.arrays
        config = a.config
        c_col = np.zeros(a.member_count)
        t_col = np.zeros(a.length + 2)
        accumulator = 0.0
        for level in range(end, 0, -1):
            base = a.member_offset[level]
            for offset in range(len(a.members[level])):
                gm = base + offset
                value = self._level_query(shapes[gm], level, end, config.pr_mx)
                c_col[gm] = value
                accumulator = accumulator + value
            t_col[level - 1] = accumulator
        cmd = 0.0
        base = a.member_offset[end]
        for offset in range(len(a.members[end])):
            shape = shapes[base + offset]
            cmd += cml(shape, float(shape.record_pages))
        return c_col, t_col, cmd

    def _mx_inserts(self, shapes):
        a = self.arrays
        config = a.config
        count = a.member_count
        inserts = np.zeros(count)
        cml_gm = np.zeros(count)
        for gm in range(count):
            inserts[gm] = cmt(shapes[gm], a.nin[gm], config.pm_mx)
            cml_gm[gm] = cml(shapes[gm], config.pm_mx)
        interior = np.zeros(count)
        for gm in range(count):
            position = int(a.member_position[gm])
            total = inserts[gm]
            if position > 1:
                base = a.member_offset[position - 1]
                for offset in range(len(a.members[position - 1])):
                    total = total + cml_gm[base + offset]
            interior[gm] = total
        return inserts, interior

    def mix(self):
        a = self.arrays
        length = a.length
        shapes = a.cached_table("mix_shapes", self._mix_shapes)
        ends = sorted({int(end) for end in self.erow})
        # H[p, e]: levels e down to p, scalar accumulation order.
        table_h = np.zeros((length + 2, length + 1))
        cmd_table = np.zeros(length + 1)
        for end in ends:
            h_col, cmd = a.cached_table(
                ("mix", end), lambda e=end: self._mix_column(shapes, e)
            )
            table_h[:, end] = h_col
            cmd_table[end] = cmd
        unit_q = table_h[self.entry_pos, self.entry_end]

        inserts, interior = a.cached_table(
            "mix_inserts", lambda: self._mix_inserts(shapes)
        )
        unit_i = inserts[self.entry_gm]
        unit_d = np.where(
            self.entry_pos > self.entry_start,
            interior[self.entry_gm],
            inserts[self.entry_gm],
        )
        cmd_rate = cmd_table[self.erow]

        def storage_terms(position: int) -> list[float]:
            def build() -> list[float]:
                shape = shapes[position]
                terms = [shape.leaf_pages]
                if shape.oversized:
                    terms.append(shape.record_count * shape.record_pages)
                return terms

            return a.cached_table(("mix_storage", position), build)

        storage = self._storage_walk(storage_terms)
        return unit_q, unit_i, unit_d, cmd_rate, storage

    def _mix_shapes(self) -> dict:
        a = self.arrays
        return {
            position: a.mix_shape(position)
            for position in range(1, a.length + 1)
        }

    def _mix_column(self, shapes, end: int):
        """One end's (H column, CMD rate), scalar accumulation order."""
        a = self.arrays
        config = a.config
        h_col = np.zeros(a.length + 2)
        accumulator = 0.0
        for level in range(end, 0, -1):
            accumulator = accumulator + self._level_query(
                shapes[level], level, end, config.pr_mix
            )
            h_col[level] = accumulator
        shape = shapes[end]
        return h_col, cml(shape, float(shape.record_pages))

    def _mix_inserts(self, shapes):
        a = self.arrays
        config = a.config
        count = a.member_count
        inserts = np.zeros(count)
        for gm in range(count):
            position = int(a.member_position[gm])
            inserts[gm] = cmt(shapes[position], a.nin[gm], config.pm_mix)
        cml_level = np.zeros(a.length + 1)
        for position in range(1, a.length + 1):
            cml_level[position] = cml(shapes[position], config.pm_mix)
        interior = inserts + cml_level[np.maximum(a.member_position - 1, 0)]
        return inserts, interior

    def none(self):
        scans = self._scan_costs()
        unit_q = scans[self.entry_gm, self.entry_end]
        zeros_entries = np.zeros(self.entry_count)
        zeros_rows = np.zeros(self.row_count)
        return unit_q, zeros_entries, zeros_entries, zeros_rows, zeros_rows.copy()

    def nx(self):
        a = self.arrays
        config = a.config
        count = self.row_count
        du_np = np.array(a.distinct_union)
        roots_per_value = np.zeros(count)
        for index, (start, end) in enumerate(self.rows):
            records = a.distinct_union[end]
            if records <= 0:
                continue
            total = 0.0
            base = a.member_offset[start]
            for offset in range(len(a.members[start])):
                gm = base + offset
                total += a.objects[gm] * a.ninbar[gm, end]
            roots_per_value[index] = total / records
        oid = a.sizes.oid_size
        header = a.sizes.record_header_size
        key_sizes = self.key_row
        record_lengths = (
            float(header) + key_sizes.astype(np.float64)
        ) + roots_per_value * oid
        table = ShapeTable.from_params(
            du_np[self.erow], record_lengths, key_sizes, a.sizes
        )
        scans = self._scan_costs()
        at_start = self.entry_pos == self.entry_start
        unit_q = np.where(
            at_start,
            self._row_queries(table, config.pr_mx)[self.entry_row],
            scans[self.entry_gm, self.entry_end],
        )
        base = cmt_batch(
            table, self.entry_row, self.ninbar_entry, config.pm_mx
        )
        unit_i = base
        roots = np.array(a.total_objects)[self.entry_start]
        root_pages = np.array(
            a.root_extent_pages, dtype=np.float64
        )[self.entry_start]
        candidates = self.ninbar_entry * roots_per_value[self.entry_row]
        revalidation = npa_array(
            np.minimum(candidates, roots), roots, root_pages
        )
        unit_d = np.where(at_start, base, base + revalidation)
        cmd_rate = cml_batch(table, table.record_pages)
        return unit_q, unit_i, unit_d, cmd_rate, table.storage_pages()

    def px(self):
        a = self.arrays
        config = a.config
        count = self.row_count
        # Π max(Σ_j k_i, 1) over the subpath — shared prefix per start.
        instantiations = np.zeros(count)
        by_start: dict[int, list[int]] = {}
        for index, (start, end) in enumerate(self.rows):
            by_start.setdefault(start, []).append(index)
        for start, indices in by_start.items():
            indices.sort(key=lambda i: self.rows[i][1])
            running = 1.0
            position = start
            for index in indices:
                end = self.rows[index][1]
                while position <= end:
                    running = running * max(a.sum_k[position], 1.0)
                    position += 1
                instantiations[index] = running
        oid = a.sizes.oid_size
        header = a.sizes.record_header_size
        key_sizes = self.key_row
        tuple_widths = ((self.erow - self.srow + 1) * oid).astype(np.float64)
        record_lengths = (
            float(header) + key_sizes.astype(np.float64)
        ) + instantiations * tuple_widths
        du_np = np.array(a.distinct_union)
        table = ShapeTable.from_params(
            du_np[self.erow], record_lengths, key_sizes, a.sizes
        )
        unit_q = self._row_queries(table, config.pr_mx)[self.entry_row]
        unit_i = cmt_batch(
            table, self.entry_row, self.ninbar_entry, config.pm_mx
        )
        cmd_rate = cml_batch(table, table.record_pages)
        return unit_q, unit_i, unit_i, cmd_rate, table.storage_pages()

    def nix(self):
        a = self.arrays
        config = a.config
        sizes = a.sizes
        count = self.row_count
        entries = self.entry_count
        pairs = self.pair_count
        length = a.length
        du_np = np.array(a.distinct_union)
        cde = sizes.class_directory_entry_size
        oid = sizes.oid_size

        # -- primary shape: interleaved (directory, oid-list) fold -----
        entry_sizes = np.array(
            [0.0] + [float(a.nix_entry_size(p)) for p in range(1, length + 1)]
        )
        entry_size = entry_sizes[self.entry_pos]
        records_entry = du_np[self.entry_end]
        incidences = a.objects[self.entry_gm] * self.ninbar_entry
        per_value = np.where(
            records_entry > 0,
            incidences / np.where(records_entry > 0, records_entry, 1.0),
            0.0,
        )
        key_sizes = self.key_row
        base_lengths = (
            float(sizes.record_header_size) + key_sizes.astype(np.float64)
        )
        primary_lengths = fold_segments(
            np.concatenate((np.full(entries, float(cde)), per_value * entry_size)),
            np.concatenate((self.entry_row, self.entry_row)),
            np.concatenate((2 * self.entry_rank, 2 * self.entry_rank + 1)),
            count,
            2 * self.max_entry_rank,
            init=base_lengths,
        )
        primary = ShapeTable.from_params(
            du_np[self.erow], primary_lengths, key_sizes, sizes
        )

        # -- auxiliary shape: 3-tuples of the non-starting classes -----
        interior = self.entry_pos > self.entry_start
        parents_of = np.array(
            [0.0, 0.0] + [a.sum_k[p - 1] for p in range(2, length + 1)]
        )
        head = float(sizes.record_header_size + oid)
        tuple_lengths = (
            head + self.ninbar_entry * sizes.pointer_size
        ) + parents_of[self.entry_pos] * oid
        aux_rank = self.entry_rank - self.m_counts[self.srow][self.entry_row]
        counts = a.objects[self.entry_gm]
        aux_total = fold_segments(
            counts[interior],
            self.entry_row[interior],
            aux_rank[interior],
            count,
            self.max_entry_rank,
        )
        aux_weighted = fold_segments(
            (counts * tuple_lengths)[interior],
            self.entry_row[interior],
            aux_rank[interior],
            count,
            self.max_entry_rank,
        )
        has_aux = aux_total != 0.0
        aux_lengths = np.where(
            has_aux, aux_weighted / np.where(has_aux, aux_total, 1.0), 0.0
        )
        auxiliary = ShapeTable.from_params(
            np.where(has_aux, aux_total, 0.0),
            aux_lengths,
            np.full(count, oid, dtype=np.int64),
            sizes,
        )

        # -- retrieval: partial record reads through the directory -----
        # The probe count is row-constant, so the structural descent runs
        # once per row; only the oversized correction term ``t · pr``
        # varies per entry. ``pr = 0`` makes crt_batch return the bare
        # structural sum (`+ t·0.0` leaves the bits unchanged).
        selector = np.arange(count)
        t_row = np.minimum(self.probes_row, primary.record_count)
        active_row = ~primary.empty & (t_row > 0.0)
        over_row = primary.oversized & active_row
        structural_q = crt_batch(primary, selector, self.probes_row, 0.0)
        if config.pr_nix is not None:
            partial_pr = np.full(entries, float(config.pr_nix))
        else:
            nc_np = np.array(a.nc, dtype=np.float64)
            share = cde * nc_np[self.entry_pos] + per_value * entry_size
            pages = 1.0 + np.ceil(share / float(sizes.page_size))
            partial_pr = np.minimum(pages, primary.record_pages[self.entry_row])
        unit_q = structural_q[self.entry_row] + np.where(
            over_row[self.entry_row],
            t_row[self.entry_row] * partial_pr,
            0.0,
        )
        if self.ranged.any():
            ranged = self.ranged[self.entry_row]
            unit_q[ranged] = range_scan_batch(
                primary, self.entry_row[ranged], a.range_selectivity,
                partial_pr[ranged],
            )

        # -- insertion: CSI3 + CSI24 -----------------------------------
        primary_insert = cmt_batch(
            primary, self.entry_row, self.ninbar_entry, config.pmi_nix
        )
        own = np.where(interior, 1.0, 0.0)
        nar = a.occupied_next[self.entry_gm]
        before_end = self.entry_pos < self.entry_end
        # The children's 3-tuples are read with nin records on insertion
        # and nin + own on deletion: few distinct (row, count) pairs, each
        # priced once.
        reads, read_code = np.unique(
            np.concatenate((a.nin, a.nin + 1.0)), return_inverse=True
        )
        width = reads.shape[0]
        child_key = self.entry_row * width + read_code[self.entry_gm]
        delete_key = self.entry_row * width + read_code[
            np.where(interior, a.member_count, 0) + self.entry_gm
        ]
        read_costs = _price_distinct(
            count,
            width,
            (child_key[before_end], delete_key[before_end]),
            lambda rows, codes: crt_batch(auxiliary, rows, reads[codes], 1.0),
        )
        crr_rewrite = crr_batch(
            auxiliary, self.entry_row, nar + own, config.pm_ax
        )
        # One own tuple per deletion/insertion at the ending class: the
        # record count is 1 for every entry, so this too is row-level.
        own_tuple = cmt_batch(
            auxiliary, selector, np.ones(count), config.pm_ax
        )[self.entry_row]
        aux_insert = np.where(
            before_end,
            read_costs[child_key] + crr_rewrite,
            np.where(interior, own_tuple, 0.0),
        )
        unit_i = primary_insert + aux_insert

        # -- deletion: CSD2 + CS3a + CU3bc + min(SA1, SA2) -------------
        csd2 = np.where(
            before_end,
            read_costs[delete_key] + crr_rewrite,
            np.where(interior, own_tuple, 0.0),
        )
        # CS3a rewrites the same primary records CSI3 does; only the page
        # override may differ.
        cs3a = primary_insert
        if config.pmd_nix != config.pmi_nix:
            cs3a = cmt_batch(
                primary, self.entry_row, self.ninbar_entry, config.pmd_nix
            )
        # A pair's parent chain is the first p - start - 1 levels of its
        # position's chain, so its totals are prefix-table reads.
        chains = a.nix_chains()
        chain_len = np.maximum(self.pair_pos - self.srow[self.pair_row] - 1, 0)
        parents_total = chains.parents_prefix[self.pair_pos, chain_len]
        narp_total = chains.narp_prefix[self.pair_pos, chain_len]
        cu3bc = self._cu3bc(chains, chain_len, auxiliary, config.pm_ax)
        retrieval = np.zeros(pairs)
        pair_leaf_records = auxiliary.leaf_records[self.pair_row]
        pair_leaf_pages = auxiliary.leaf_pages[self.pair_row]
        active = (parents_total > 0) & ~auxiliary.empty[self.pair_row]
        if active.any():
            records = pair_leaf_records[active]
            pages = pair_leaf_pages[active]
            sa1 = npa_array(
                np.minimum(parents_total[active], records), records, pages
            )
            oversized = auxiliary.oversized[self.pair_row][active]
            sa2 = np.where(
                oversized,
                narp_total[active],
                npa_array(
                    np.minimum(narp_total[active], records), records, pages
                ),
            )
            retrieval[active] = np.minimum(sa1, sa2)
        unit_d = (
            (csd2 + cs3a) + cu3bc[self.entry_pair]
        ) + retrieval[self.entry_pair]

        # -- CMD: whole-record removal plus the delpoint rewrites ------
        cml_primary = cml_batch(primary, primary.record_pages)
        pair_interior = self.pair_pos > self.srow[self.pair_row]
        touched = np.zeros(count)
        if pair_interior.any():
            subtotal_np = np.array(a.nix_subtotal)
            subtotal = subtotal_np[
                self.pair_pos[pair_interior],
                self.erow[self.pair_row[pair_interior]],
            ]
            delpoint_rank = (
                self.pair_pos - self.srow[self.pair_row] - 1
            )[pair_interior]
            touched = fold_segments(
                subtotal,
                self.pair_row[pair_interior],
                delpoint_rank,
                count,
                int(delpoint_rank.max()) + 1,
            )
        delpoint = np.zeros(count)
        occupied = ~auxiliary.empty
        if occupied.any():
            records = auxiliary.leaf_records[occupied]
            pages = auxiliary.leaf_pages[occupied]
            delpoint[occupied] = 2.0 * npa_array(
                np.minimum(touched[occupied], records), records, pages
            )
        cmd_rate = cml_primary + delpoint

        primary_storage = primary.storage_pages()
        with_aux = (primary_storage + auxiliary.leaf_pages) + np.where(
            auxiliary.oversized,
            auxiliary.record_count * auxiliary.record_pages,
            0.0,
        )
        storage = np.where(auxiliary.empty, primary_storage, with_aux)
        return unit_q, unit_i, unit_d, cmd_rate, storage

    def _cu3bc(self, chains, chain_len, auxiliary, pm_ax) -> np.ndarray:
        """Per-pair CU3bc: the ancestor 3-tuple rewrites of a deletion.

        Pair ``(row, p)`` sums ``crr(aux_row, narp[p][level], pm_ax)`` over
        the levels ``p-1`` down to ``start+1``. A term depends on the row
        and the narp value only, so each distinct (row, value) is priced
        once; the sums then walk the chain ranks left to right over the
        pairs whose chains are still that long (longest chain first) —
        the scalar's accumulation order.
        """
        cu3bc = np.zeros(self.pair_count)
        longest = int(chain_len.max(initial=0))
        if not longest:
            return cu3bc
        values = chains.narp_values
        width = values.shape[0]
        by_length = np.argsort(-chain_len, kind="stable")
        climbing = self.pair_count - np.cumsum(np.bincount(chain_len))
        base = (self.pair_row * width)[by_length]
        # Flat narp_code index of (p, p - 1); rank r reads (p, p - 1 - r).
        head = (self.pair_pos * (self.arrays.length + 2) - 1)[by_length]
        codes = chains.narp_code.ravel()
        keys = [
            base[:pairs] + codes[head[:pairs] - rank]
            for rank, pairs in enumerate(climbing[:longest].tolist())
        ]
        rewrites = _price_distinct(
            self.row_count,
            width,
            keys,
            lambda rows, code: crr_batch(auxiliary, rows, values[code], pm_ax),
        )
        folded = np.zeros(self.pair_count)
        for key in keys:
            folded[: key.shape[0]] += rewrites[key]
        cu3bc[by_length] = folded
        return cu3bc


def _price_distinct(row_count: int, width: int, keys, price) -> np.ndarray:
    """A flat ``row_count × width`` table of ``price`` at the given keys.

    Every array in ``keys`` holds flat ``row * width + code`` indices;
    ``price(rows, codes)`` runs once over the distinct ones, and the table
    is ``0.0`` elsewhere. Pricing is elementwise, so each value is the one
    the repeated batch would have produced.
    """
    seen = np.zeros(row_count * width, dtype=bool)
    for batch in keys:
        seen[batch] = True
    distinct = np.flatnonzero(seen)
    table = np.zeros(row_count * width)
    if distinct.size:
        table[distinct] = price(distinct // width, distinct % width)
    return table
