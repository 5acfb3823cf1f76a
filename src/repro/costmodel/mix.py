"""Multi-inherited index (MIX) cost model.

A MIX allocates one index per class *level* of the subpath (one per member
of ``class(P)``); if the class has an inheritance hierarchy the index is
an inherited index covering the class and all its subclasses, otherwise it
degenerates to a simple index (Section 2.2).

Retrieval (Section 3.1):

.. math::

    CRMIX(C_{l,x}) = \\sum_{i=l}^{t-1} CRT(h_i, noid\\sigma_{i+1}, pr)
                     + CRL(h_t, pr)

generalized to ``probes`` equality values (``CRL → CRT``). Maintenance
touches the single inherited index of the object's level, plus — on
deletion — one record of the previous level's index when that level is
inside the subpath (otherwise it is the preceding subpath's ``CMD``).
"""

from __future__ import annotations

from repro.costmodel.base import SubpathCostModel
from repro.costmodel.btree_shape import IndexShape
from repro.costmodel.params import PathStatistics
from repro.costmodel.primitives import cml, cmt, crt
from repro.organizations import IndexOrganization


class MIXCostModel(SubpathCostModel):
    """Analytic costs of a multi-inherited index on one subpath."""

    organization = IndexOrganization.MIX

    def __init__(self, stats: PathStatistics, start: int, end: int) -> None:
        super().__init__(stats, start, end)
        self._shapes: dict[int, IndexShape] = {
            position: self.mix_shape(position) for position in self.positions()
        }

    def shape(self, position: int) -> IndexShape:
        """The shape of the inherited index at one level."""
        return self._shapes[position]

    # ------------------------------------------------------------------
    # retrieval
    # ------------------------------------------------------------------
    def query_cost(self, position: int, class_name: str, probes: float = 1.0) -> float:
        self._check_covered(position, class_name)
        total = crt(self.shape(self.end), probes, self.config.pr_mix)
        for level in range(self.end - 1, position - 1, -1):
            keys = self.stats.probe_keys(level, self.end, probes)
            total += crt(self.shape(level), keys, self.config.pr_mix)
        return total

    def hierarchy_query_cost(self, position: int, probes: float = 1.0) -> float:
        """Retrieval w.r.t. the whole hierarchy — identical for a MIX.

        An inherited index stores the oids of the class and all its
        subclasses in the same record, so scoping the query to subclasses
        does not change the pages fetched.
        """
        return self.query_cost(position, self.stats.members(position)[0], probes)

    def range_query_cost(
        self,
        position: int,
        class_name: str,
        selectivity: float,
        probes: float = 1.0,
    ) -> float:
        """Range predicate: one contiguous scan of the ending inherited
        index, then oid chaining through the levels below."""
        from repro.costmodel.ranges import range_scan_cost

        self._check_covered(position, class_name)
        total = range_scan_cost(
            self.shape(self.end), selectivity, self.config.pr_mix
        )
        # A non-empty range matches at least one value.
        matched = (
            max(1.0, selectivity * self.stats.distinct_union(self.end)) * probes
        )
        for level in range(self.end - 1, position - 1, -1):
            keys = self.stats.probe_keys(level, self.end, matched)
            total += crt(self.shape(level), keys, self.config.pr_mix)
        return total

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def insert_cost(self, position: int, class_name: str) -> float:
        self._check_covered(position, class_name)
        nin = self.stats.nin(position, class_name)
        return cmt(self.shape(position), nin, self.config.pm_mix)

    def delete_cost(self, position: int, class_name: str) -> float:
        self._check_covered(position, class_name)
        nin = self.stats.nin(position, class_name)
        total = cmt(self.shape(position), nin, self.config.pm_mix)
        if position > self.start:
            total += cml(self.shape(position - 1), self.config.pm_mix)
        return total

    def cmd_cost(self) -> float:
        shape = self.shape(self.end)
        # paper: CML(h_t^MIX, ⌈ln/p⌉) — every page of the record keyed by
        # the deleted oid is touched.
        return cml(shape, float(shape.record_pages))

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def storage_pages(self) -> float:
        total = 0.0
        for shape in self._shapes.values():
            total += shape.leaf_pages
            if shape.oversized:
                total += shape.record_count * shape.record_pages
        return total
