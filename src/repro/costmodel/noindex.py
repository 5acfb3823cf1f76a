"""No-index (naive traversal) cost model — the Section 6 extension.

The paper's further-research list includes "the possibility that no index
will be allocated on a subpath". Without an index, a query against the
ending attribute must evaluate the nested predicate by scanning: reverse
references do not exist, so the evaluator scans the extent of every class
in the subpath's scope once (building value sets bottom-up — the best
possible naive strategy given forward-only references).

Maintenance and cross-subpath costs are zero — exactly the appeal of
leaving a subpath unindexed under update-heavy loads.
"""

from __future__ import annotations

import math

from repro.costmodel.base import SubpathCostModel
from repro.costmodel.params import PathStatistics
from repro.organizations import IndexOrganization


class NoIndexCostModel(SubpathCostModel):
    """Costs of evaluating a subpath by extent scans (no index at all)."""

    organization = IndexOrganization.NONE

    def __init__(self, stats: PathStatistics, start: int, end: int) -> None:
        super().__init__(stats, start, end)

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

    def query_cost(self, position: int, class_name: str, probes: float = 1.0) -> float:
        self._check_covered(position, class_name)
        # One pass over the target class's extent plus one pass over every
        # extent below it in the subpath; the probe count does not change
        # the scan cost (the predicate set is checked in memory).
        total = self._extent_pages(position, class_name)
        for level in range(position + 1, self.end + 1):
            for member in self.stats.members(level):
                total += self._extent_pages(level, member)
        return total

    def hierarchy_query_cost(self, position: int, probes: float = 1.0) -> float:
        """Scan cost for the class and all its subclasses."""
        total = self.query_cost(position, self.stats.members(position)[0], probes)
        for member in self.stats.members(position)[1:]:
            total += self._extent_pages(position, member)
        return total

    def insert_cost(self, position: int, class_name: str) -> float:
        self._check_covered(position, class_name)
        return 0.0

    def delete_cost(self, position: int, class_name: str) -> float:
        self._check_covered(position, class_name)
        return 0.0

    def cmd_cost(self) -> float:
        return 0.0

    def storage_pages(self) -> float:
        return 0.0
