"""Path index (PX) cost model — the Section 6 extension from [6].

A path index ([Bertino & Guglielmina, RIDE-TQP 92]; also [2]) associates
with each value ``v`` of the subpath's ending attribute the set of *path
instantiations*: maximal oid tuples ``(o_s, ..., o_t)`` whose chain of
forward references reaches ``v``. One lookup answers a query with respect
to **any** class of the subpath (project the tuple position), like the NIX
primary — but the instantiations themselves replace the auxiliary index:

* an instantiation contains every ancestor explicitly, so deletions locate
  their work inside the retrieved records (no parent-list walk);
* the price is record width: ``#instantiations × span × oid`` instead of
  one oid list per class, plus the re-insertion of orphaned suffixes.

Cost model summary (consistent with the CRL/CML/CRT/CMT primitives):

* query: ``CRT(h_PX, probes, pr)`` — identical shape to the NIX primary
  with wider records;
* insert of an object of ``C_{l,x}``: the new chains join the ``nin-bar``
  reachable records — ``CMT(h_PX, nin-bar)`` (ancestor prefixes do not yet
  exist: objects are created bottom-up);
* delete: fetch and rewrite the ``nin-bar`` affected records
  (``CMT(h_PX, nin-bar)``); orphan-suffix repair rewrites the same pages,
  so no extra term;
* ``CMD``: one record keyed by the deleted following-class oid is removed,
  every page of it touched — ``CML(h_PX, ⌈ln/p⌉)``; no delpoint (there is
  no auxiliary index).
"""

from __future__ import annotations

from repro.costmodel.base import SubpathCostModel
from repro.costmodel.btree_shape import IndexShape, build_shape
from repro.costmodel.params import PathStatistics
from repro.costmodel.primitives import cml, cmt, crt
from repro.organizations import IndexOrganization


class PXCostModel(SubpathCostModel):
    """Analytic costs of a path index on one subpath."""

    organization = IndexOrganization.PX

    def __init__(self, stats: PathStatistics, start: int, end: int) -> None:
        super().__init__(stats, start, end)
        self._shape = stats.cached_shape(("px", start, end), self._build_shape)

    # ------------------------------------------------------------------
    # shape
    # ------------------------------------------------------------------
    @property
    def shape(self) -> IndexShape:
        """Shape of the (single) path-index B+-tree."""
        return self._shape

    def _instantiations_per_value(self) -> float:
        """Expected maximal instantiations listed in one record.

        Every starting-hierarchy object contributes its chains: the number
        of full instantiations per ending value is the level-1 fan-in of
        the chain, ``noid-sigma`` at the starting level divided over the
        distinct values... directly: instantiations ending at one value =
        Π over levels of the hierarchy fan-in ``Σ_j k_{i,j}``.
        """
        total = 1.0
        for position in range(self.start, self.end + 1):
            total *= max(self.stats.sum_k(position), 1.0)
        return total

    def _build_shape(self) -> IndexShape:
        span = self.end - self.start + 1
        tuple_width = span * self.sizes.oid_size
        record_length = (
            self.sizes.record_header_size
            + self.key_size_at(self.end)
            + self._instantiations_per_value() * tuple_width
        )
        return build_shape(
            record_count=self.stats.distinct_union(self.end),
            record_length=record_length,
            key_size=self.key_size_at(self.end),
            sizes=self.sizes,
        )

    # ------------------------------------------------------------------
    # retrieval
    # ------------------------------------------------------------------
    def query_cost(self, position: int, class_name: str, probes: float = 1.0) -> float:
        self._check_covered(position, class_name)
        return crt(self._shape, probes, self.config.pr_mx)

    def hierarchy_query_cost(self, position: int, probes: float = 1.0) -> float:
        """Identical: the whole record is organized by instantiation."""
        members = self.stats.members(position)
        return self.query_cost(position, members[0], probes)

    def range_query_cost(
        self,
        position: int,
        class_name: str,
        selectivity: float,
        probes: float = 1.0,
    ) -> float:
        """Range predicate: one contiguous walk of the chained leaves."""
        from repro.costmodel.ranges import range_scan_cost

        self._check_covered(position, class_name)
        return range_scan_cost(
            self._shape, min(1.0, selectivity * probes), self.config.pr_mx
        )

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def insert_cost(self, position: int, class_name: str) -> float:
        self._check_covered(position, class_name)
        affected = self.stats.ninbar(position, class_name, self.end)
        return cmt(self._shape, affected, self.config.pm_mx)

    def delete_cost(self, position: int, class_name: str) -> float:
        self._check_covered(position, class_name)
        affected = self.stats.ninbar(position, class_name, self.end)
        return cmt(self._shape, affected, self.config.pm_mx)

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
