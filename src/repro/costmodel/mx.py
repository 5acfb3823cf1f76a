"""Multi-index (MX) cost model.

An MX allocates one simple index per class in the *scope* of the subpath:
for every position ``i`` and every hierarchy member ``C_{i,j}`` there is an
index on attribute ``A_i`` of exactly that class (Section 2.2).

Retrieval (Section 3.1, ``CRMX``): a query against the ending attribute
with respect to class ``C_{l,x}`` performs ``1 + Σ_{i=l+1..t} nc_i`` index
lookups — the target class's own index, every hierarchy member's index at
the intermediate levels, and every member's index at the ending level. The
number of records fetched in a level-``i`` index is the oid fan-in
``noid-sigma_{i+1}`` from the level below (clamped by the records that
exist, which Yao requires).

Maintenance (``CMMX``): inserting an object touches only its own class
index (``CMT`` over its ``nin`` values); deleting it additionally removes
the record keyed by its oid from the index of the previous class *and all
its subclasses* — when the previous class belongs to this subpath. When
the previous class belongs to the preceding subpath, that cost is the
preceding subpath's ``CMD`` (Definition 4.2 attributes it there).
"""

from __future__ import annotations

from repro.costmodel.base import SubpathCostModel
from repro.costmodel.btree_shape import IndexShape
from repro.costmodel.params import PathStatistics
from repro.costmodel.primitives import cml, cmt, crt
from repro.organizations import IndexOrganization


class MXCostModel(SubpathCostModel):
    """Analytic costs of a multi-index on one subpath."""

    organization = IndexOrganization.MX

    def __init__(self, stats: PathStatistics, start: int, end: int) -> None:
        super().__init__(stats, start, end)
        self._shapes: dict[tuple[int, str], IndexShape] = {}
        for position in self.positions():
            for member in stats.members(position):
                self._shapes[(position, member)] = self.mx_shape(position, member)

    def shape(self, position: int, class_name: str) -> IndexShape:
        """The shape of the index on ``A_position`` of one class."""
        return self._shapes[(position, class_name)]

    # ------------------------------------------------------------------
    # retrieval
    # ------------------------------------------------------------------
    def query_cost(self, position: int, class_name: str, probes: float = 1.0) -> float:
        self._check_covered(position, class_name)
        stats = self.stats
        total = 0.0
        # Ending level: every hierarchy member is probed with the equality
        # value(s) — unless the target class itself sits at the ending level,
        # in which case only its own index matters.
        if position == self.end:
            return crt(
                self.shape(position, class_name), probes, self.config.pr_mx
            )
        for member in stats.members(self.end):
            total += crt(self.shape(self.end, member), probes, self.config.pr_mx)
        # Intermediate levels between the target and the ending attribute.
        for level in range(self.end - 1, position, -1):
            keys = stats.probe_keys(level, self.end, probes)
            for member in stats.members(level):
                total += crt(self.shape(level, member), keys, self.config.pr_mx)
        # Target level: only the target class's index.
        keys = stats.probe_keys(position, self.end, probes)
        total += crt(self.shape(position, class_name), keys, self.config.pr_mx)
        return total

    def hierarchy_query_cost(self, position: int, probes: float = 1.0) -> float:
        """``CRMX`` with respect to ``C-hat_{l,x}`` (class plus subclasses)."""
        members = self.stats.members(position)
        total = self.query_cost(position, members[0], probes)
        keys = self.stats.probe_keys(position, self.end, probes)
        for member in members[1:]:
            total += crt(self.shape(position, member), keys, self.config.pr_mx)
        return total

    def range_query_cost(
        self,
        position: int,
        class_name: str,
        selectivity: float,
        probes: float = 1.0,
    ) -> float:
        """Range predicate: contiguous scans of the ending indexes, then
        ordinary oid chaining through the intermediate levels."""
        from repro.costmodel.ranges import range_scan_cost

        self._check_covered(position, class_name)
        stats = self.stats
        if position == self.end:
            return range_scan_cost(
                self.shape(position, class_name), selectivity, self.config.pr_mx
            )
        total = 0.0
        for member in stats.members(self.end):
            total += range_scan_cost(
                self.shape(self.end, member), selectivity, self.config.pr_mx
            )
        # A non-empty range matches at least one value.
        matched = max(1.0, selectivity * stats.distinct_union(self.end)) * probes
        for level in range(self.end - 1, position, -1):
            keys = stats.probe_keys(level, self.end, matched)
            for member in stats.members(level):
                total += crt(self.shape(level, member), keys, self.config.pr_mx)
        keys = stats.probe_keys(position, self.end, matched)
        total += crt(self.shape(position, class_name), keys, self.config.pr_mx)
        return total

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def insert_cost(self, position: int, class_name: str) -> float:
        self._check_covered(position, class_name)
        nin = self.stats.nin(position, class_name)
        return cmt(self.shape(position, class_name), nin, self.config.pm_mx)

    def delete_cost(self, position: int, class_name: str) -> float:
        self._check_covered(position, class_name)
        nin = self.stats.nin(position, class_name)
        total = cmt(self.shape(position, class_name), nin, self.config.pm_mx)
        if position > self.start:
            # The deleted oid keys one record in the index of the previous
            # class and each of its subclasses.
            for member in self.stats.members(position - 1):
                total += cml(self.shape(position - 1, member), self.config.pm_mx)
        return total

    def cmd_cost(self) -> float:
        # Deleting an object of C_{t+1}: its oid keys a record in the
        # ending-attribute index of every hierarchy member at level t.
        # paper: the CMD table's MX row; the Σ over subclasses mirrors the
        # CMMX deletion prose ("the index defined on class C_{l-1} and all
        # its subclasses").
        total = 0.0
        for member in self.stats.members(self.end):
            shape = self.shape(self.end, member)
            total += cml(shape, float(shape.record_pages))
        return total

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def storage_pages(self) -> float:
        total = 0.0
        for shape in self._shapes.values():
            total += shape.leaf_pages * (1 if not shape.oversized else 1)
            if shape.oversized:
                total += shape.record_count * shape.record_pages
        return total
