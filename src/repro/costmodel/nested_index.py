"""Nested index (NX) cost model — the Section 6 extension from [1, 2].

A nested index ([Bertino & Kim, TKDE 89]) associates with each value ``v``
of the subpath's ending attribute only the oids of the **starting-class
hierarchy** objects that reach it. It is the leanest possible structure
for the common query ("retrieve the Persons whose nested attribute equals
v"), and the classic trade-off applies:

* queries with respect to the starting class: one lookup, narrow records —
  the cheapest of all organizations;
* queries with respect to intermediate classes: the index cannot answer
  them (it stores no intermediate oids); the evaluator falls back to
  scanning the target extent and validating forward, which the model
  prices as extent scans (like the no-index model for that level);
* maintenance on the starting class: the affected keys are computable by
  forward traversal — ``CMT(h_NX, nin-bar)``;
* maintenance on intermediate classes: the affected *keys* are still
  reachable forward, but deciding which starting-class oids drop out
  requires revalidating the candidate roots of each affected record —
  priced as fetching those candidate root objects (Yao over the starting
  extents) on top of the record maintenance. This is the well-known
  weakness that motivated the paper's NIX auxiliary index.
"""

from __future__ import annotations

import math

from repro.costmodel.base import SubpathCostModel
from repro.costmodel.btree_shape import IndexShape, build_shape
from repro.costmodel.params import PathStatistics
from repro.costmodel.primitives import cml, cmt, crt
from repro.costmodel.yao import npa
from repro.organizations import IndexOrganization


class NXCostModel(SubpathCostModel):
    """Analytic costs of a nested index on one subpath."""

    organization = IndexOrganization.NX

    def __init__(self, stats: PathStatistics, start: int, end: int) -> None:
        super().__init__(stats, start, end)
        self._shape = stats.cached_shape(("nx", start, end), self._build_shape)

    # ------------------------------------------------------------------
    # shape
    # ------------------------------------------------------------------
    @property
    def shape(self) -> IndexShape:
        """Shape of the nested-index B+-tree."""
        return self._shape

    def _roots_per_value(self) -> float:
        """Starting-hierarchy oids listed in one record."""
        records = self.stats.distinct_union(self.end)
        if records <= 0:
            return 0.0
        total = 0.0
        for member in self.stats.members(self.start):
            total += self.stats.n(self.start, member) * self.stats.ninbar(
                self.start, member, self.end
            )
        return total / records

    def _build_shape(self) -> IndexShape:
        record_length = (
            self.sizes.record_header_size
            + self.key_size_at(self.end)
            + self._roots_per_value() * self.sizes.oid_size
        )
        return build_shape(
            record_count=self.stats.distinct_union(self.end),
            record_length=record_length,
            key_size=self.key_size_at(self.end),
            sizes=self.sizes,
        )

    def _root_extent_pages(self) -> float:
        per_page = max(
            1,
            self.sizes.page_size
            // (self.sizes.object_size + self.sizes.object_overhead_size),
        )
        return sum(
            math.ceil(self.stats.n(self.start, member) / per_page)
            for member in self.stats.members(self.start)
            if self.stats.n(self.start, member) > 0
        )

    def _extent_pages(self, position: int, class_name: str) -> float:
        objects = self.stats.n(position, class_name)
        if objects <= 0:
            return 0.0
        per_page = max(
            1,
            self.sizes.page_size
            // (self.sizes.object_size + self.sizes.object_overhead_size),
        )
        return float(math.ceil(objects / per_page))

    # ------------------------------------------------------------------
    # retrieval
    # ------------------------------------------------------------------
    def query_cost(self, position: int, class_name: str, probes: float = 1.0) -> float:
        self._check_covered(position, class_name)
        if position == self.start:
            return crt(self._shape, probes, self.config.pr_mx)
        # Intermediate class: the index is of no help; scan the target
        # extent and the extents below it for forward validation.
        total = self._extent_pages(position, class_name)
        for level in range(position + 1, self.end + 1):
            for member in self.stats.members(level):
                total += self._extent_pages(level, member)
        return total

    def hierarchy_query_cost(self, position: int, probes: float = 1.0) -> float:
        members = self.stats.members(position)
        total = self.query_cost(position, members[0], probes)
        if position != self.start:
            for member in members[1:]:
                total += self._extent_pages(position, member)
        return total

    def range_query_cost(
        self,
        position: int,
        class_name: str,
        selectivity: float,
        probes: float = 1.0,
    ) -> float:
        """Range predicate: leaf walk for root queries, scans otherwise."""
        from repro.costmodel.ranges import range_scan_cost

        self._check_covered(position, class_name)
        if position == self.start:
            return range_scan_cost(
                self._shape, min(1.0, selectivity * probes), self.config.pr_mx
            )
        return self.query_cost(position, class_name, probes)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def insert_cost(self, position: int, class_name: str) -> float:
        self._check_covered(position, class_name)
        affected = self.stats.ninbar(position, class_name, self.end)
        base = cmt(self._shape, affected, self.config.pm_mx)
        if position == self.start:
            return base
        # The new object creates reachability for its (future) ancestors —
        # none exist at creation time, so only the record update for roots
        # already reaching through siblings... which is a no-op; we still
        # pay the lookup to discover that (base) — no revalidation needed.
        return base

    def delete_cost(self, position: int, class_name: str) -> float:
        self._check_covered(position, class_name)
        affected = self.stats.ninbar(position, class_name, self.end)
        base = cmt(self._shape, affected, self.config.pm_mx)
        if position == self.start:
            return base
        # Revalidate the candidate roots of each affected record: fetch
        # the listed root objects and re-check their forward chains.
        candidates = affected * self._roots_per_value()
        total_roots = self.stats.total_objects(self.start)
        revalidation = npa(
            min(candidates, total_roots), total_roots, self._root_extent_pages()
        )
        return base + revalidation

    def cmd_cost(self) -> float:
        return cml(self._shape, float(self._shape.record_pages))

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def storage_pages(self) -> float:
        total = self._shape.leaf_pages
        if self._shape.oversized:
            total += self._shape.record_count * self._shape.record_pages
        return total
