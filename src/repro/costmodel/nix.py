"""Nested inherited index (NIX) cost model.

A NIX on a subpath consists of (Section 3.1, Figures 3–5):

* a **primary index** keyed by the values of the subpath's ending
  attribute; each record lists, per class in the subpath's scope, the oids
  of the objects holding that value in their nested attribute (with
  ``numchild`` counters for multi-valued attributes);
* an **auxiliary index** keyed by oid, holding one 3-tuple per object of
  the non-starting classes: the oid, the pointers to the primary records
  containing it, and the list of its aggregation parents.

Queries read one primary record per probe value (``CRL``, or a partial
read of the relevant class's pages when the record spans pages).
Maintenance follows the paper's step-by-step algorithms:

* deletion: ``CSD2`` (children's and own 3-tuples) plus ``CSD3``
  (= ``CS3a`` primary-record maintenance + ``CU3bc`` ancestor 3-tuple
  rewrites + ``min(SA1, SA2)`` parent-oid retrieval);
* insertion: ``CSI24`` (3-tuple accesses, own 3-tuple creation) plus
  ``CSI3`` (primary-record maintenance).

Degenerate boundaries are handled explicitly: objects of the starting
class have no 3-tuples, and objects of the ending class have no indexed
children (their attribute values *are* the primary keys).
"""

from __future__ import annotations

import math

from repro.costmodel.base import SubpathCostModel
from repro.costmodel.btree_shape import IndexShape, build_shape
from repro.costmodel.params import PathStatistics
from repro.costmodel.primitives import cml, cmt, crr, crt
from repro.costmodel.yao import npa
from repro.organizations import IndexOrganization


class NIXCostModel(SubpathCostModel):
    """Analytic costs of a nested inherited index on one subpath."""

    organization = IndexOrganization.NIX

    def __init__(self, stats: PathStatistics, start: int, end: int) -> None:
        super().__init__(stats, start, end)
        self._primary = stats.cached_shape(
            ("nix_primary", start, end), self._build_primary_shape
        )
        self._auxiliary = stats.cached_shape(
            ("nix_auxiliary", start, end), self._build_auxiliary_shape
        )

    # ------------------------------------------------------------------
    # shapes
    # ------------------------------------------------------------------
    @property
    def primary_shape(self) -> IndexShape:
        """Shape of the primary (value → scope oids) index."""
        return self._primary

    @property
    def auxiliary_shape(self) -> IndexShape:
        """Shape of the auxiliary (oid → 3-tuple) index."""
        return self._auxiliary

    def _primary_record_count(self) -> float:
        return self.stats.distinct_union(self.end)

    def _entry_size(self, position: int) -> int:
        """Oid entry size: ``(oid, numchild)`` for multi-valued attributes."""
        attribute = self.stats.path.attribute_def_at(position)
        if attribute.multi_valued:
            return self.sizes.oid_size + self.sizes.numchild_size
        return self.sizes.oid_size

    def _objects_per_value(self, position: int, class_name: str) -> float:
        """``K_{i,j}``: objects of a class listed in one primary record."""
        records = self._primary_record_count()
        if records <= 0:
            return 0.0
        stats = self.stats
        incidences = stats.n(position, class_name) * stats.ninbar(
            position, class_name, self.end
        )
        return incidences / records

    def _build_primary_shape(self) -> IndexShape:
        length = float(
            self.sizes.record_header_size + self.key_size_at(self.end)
        )
        for position in self.positions():
            for member in self.stats.members(position):
                length += self.sizes.class_directory_entry_size
                length += self._objects_per_value(position, member) * self._entry_size(
                    position
                )
        return build_shape(
            record_count=self._primary_record_count(),
            record_length=length,
            key_size=self.key_size_at(self.end),
            sizes=self.sizes,
        )

    def _build_auxiliary_shape(self) -> IndexShape:
        # One 3-tuple per object of every non-starting class of the subpath.
        total_objects = 0.0
        weighted_length = 0.0
        for position in range(self.start + 1, self.end + 1):
            parents = self.stats.par(position)
            for member in self.stats.members(position):
                count = self.stats.n(position, member)
                pointers = self.stats.ninbar(position, member, self.end)
                tuple_length = (
                    self.sizes.record_header_size
                    + self.sizes.oid_size
                    + pointers * self.sizes.pointer_size
                    + parents * self.sizes.oid_size
                )
                total_objects += count
                weighted_length += count * tuple_length
        if total_objects == 0:
            return build_shape(0.0, 0.0, self.sizes.oid_size, self.sizes)
        return build_shape(
            record_count=total_objects,
            record_length=weighted_length / total_objects,
            key_size=self.sizes.oid_size,
            sizes=self.sizes,
        )

    # ------------------------------------------------------------------
    # retrieval
    # ------------------------------------------------------------------
    def _partial_pr(self, position: int, class_name: str) -> float | None:
        """Pages of a primary record relevant to one class.

        The class directory (Figure 3) stores per-class offsets, so a query
        for one class touches the directory page plus the pages holding
        that class's oid list rather than the whole record.
        """
        if self.config.pr_nix is not None:
            return self.config.pr_nix
        shape = self._primary
        if not shape.oversized:
            return None
        share = (
            self.sizes.class_directory_entry_size * len(self.stats.members(position))
            + self._objects_per_value(position, class_name)
            * self._entry_size(position)
        )
        pages = 1 + math.ceil(share / self.sizes.page_size)
        return float(min(pages, shape.record_pages))

    def query_cost(self, position: int, class_name: str, probes: float = 1.0) -> float:
        self._check_covered(position, class_name)
        return crt(self._primary, probes, self._partial_pr(position, class_name))

    def hierarchy_query_cost(self, position: int, probes: float = 1.0) -> float:
        """Retrieval w.r.t. a class and its subclasses (larger record share)."""
        members = self.stats.members(position)
        if self.config.pr_nix is not None or not self._primary.oversized:
            return self.query_cost(position, members[0], probes)
        share = self.sizes.class_directory_entry_size * len(members)
        for member in members:
            share += self._objects_per_value(position, member) * self._entry_size(
                position
            )
        pages = 1 + math.ceil(share / self.sizes.page_size)
        pr = float(min(pages, self._primary.record_pages))
        return crt(self._primary, probes, pr)

    def range_query_cost(
        self,
        position: int,
        class_name: str,
        selectivity: float,
        probes: float = 1.0,
    ) -> float:
        """Range predicate: one contiguous walk of the chained primary
        leaves; per touched record only the target class's pages count."""
        from repro.costmodel.ranges import range_scan_cost

        self._check_covered(position, class_name)
        return range_scan_cost(
            self._primary,
            min(1.0, selectivity * probes),
            self._partial_pr(position, class_name),
        )

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def insert_cost(self, position: int, class_name: str) -> float:
        self._check_covered(position, class_name)
        stats = self.stats
        nin = stats.nin(position, class_name)
        # CSI3: the new object joins the primary records of every ending
        # value it reaches.
        primary = cmt(
            self._primary,
            stats.ninbar(position, class_name, self.end),
            self.config.pmi_nix,
        )
        if position < self.end:
            # CSI24: read the children's 3-tuples, rewrite them with the new
            # parent, and create the object's own 3-tuple.
            own = 1.0 if position > self.start else 0.0
            nar = stats.occupied_members(position + 1, nin)
            auxiliary = crt(self._auxiliary, nin, 1.0) + crr(
                self._auxiliary, nar + own, self.config.pm_ax
            )
        elif position > self.start:
            # Ending-class object: no indexed children; only its own 3-tuple.
            auxiliary = cmt(self._auxiliary, 1.0, self.config.pm_ax)
        else:
            auxiliary = 0.0
        return primary + auxiliary

    def delete_cost(self, position: int, class_name: str) -> float:
        self._check_covered(position, class_name)
        stats = self.stats
        nin = stats.nin(position, class_name)

        # --- step 2 (CSD2): children's 3-tuples and the object's own.
        if position < self.end:
            own = 1.0 if position > self.start else 0.0
            nar = stats.occupied_members(position + 1, nin)
            csd2 = crt(self._auxiliary, nin + own, 1.0) + crr(
                self._auxiliary, nar + own, self.config.pm_ax
            )
        elif position > self.start:
            csd2 = cmt(self._auxiliary, 1.0, self.config.pm_ax)
        else:
            csd2 = 0.0

        # --- step 3a (CS3a): fetch and rewrite the primary records.
        cs3a = cmt(
            self._primary,
            stats.ninbar(position, class_name, self.end),
            self.config.pmd_nix,
        )

        # --- steps 3b/3c (CU3bc) and the parent-oid retrieval (SA1/SA2).
        auxiliary = self._auxiliary
        pm_ax = self.config.pm_ax
        cu3bc = 0.0
        parents_total = 0.0
        narp_total = 0.0
        parents = 0.0
        for level in range(position - 1, self.start, -1):
            parents = (parents if parents > 0 else 1.0) * stats.sum_k(level)
            if self.config.clamp_cardinalities:
                parents = min(parents, stats.total_objects(level))
            narp = stats.occupied_members(level, parents)
            cu3bc += crr(auxiliary, narp, pm_ax)
            parents_total += parents
            narp_total += narp
        retrieval = 0.0
        if parents_total > 0 and not auxiliary.empty:
            leaf = auxiliary.levels[0]
            sa1 = npa(min(parents_total, leaf.records), leaf.records, leaf.pages)
            if auxiliary.oversized:
                sa2 = narp_total
            else:
                sa2 = npa(min(narp_total, leaf.records), leaf.records, leaf.pages)
            retrieval = min(sa1, sa2)
        return csd2 + cs3a + cu3bc + retrieval

    def cmd_cost(self) -> float:
        # Deleting an object of C_{t+1} removes one whole primary record
        # (footnote 3: every page of the record is touched) and the pointers
        # to it from the 3-tuples of the objects it listed (delpoint).
        total = cml(self._primary, float(self._primary.record_pages))
        total += self._delpoint()
        return total

    def _delpoint(self) -> float:
        if self._auxiliary.empty:
            return 0.0
        # paper: delpoint = 2 · npa(Σ_{i=k+1..t} Σ_j nin-bar_{i,j},
        #                           Σ_{i=k+1..t} Σ_j n_{i,j}, pl_az)
        # — the touched 3-tuples are estimated by the per-class average
        # nested-value counts, and the pages they sit on are fetched and
        # rewritten.
        touched = 0.0
        for position in range(self.start + 1, self.end + 1):
            subtotal = 0.0
            for member in self.stats.members(position):
                subtotal += self.stats.ninbar(position, member, self.end)
            touched += subtotal
        leaf = self._auxiliary.levels[0]
        return 2.0 * npa(min(touched, leaf.records), leaf.records, leaf.pages)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def storage_pages(self) -> float:
        total = self._primary.leaf_pages
        if self._primary.oversized:
            total += self._primary.record_count * self._primary.record_pages
        if not self._auxiliary.empty:
            total += self._auxiliary.leaf_pages
            if self._auxiliary.oversized:
                total += self._auxiliary.record_count * self._auxiliary.record_pages
        return total
