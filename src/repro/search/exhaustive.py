"""Exhaustive strategy: evaluate all ``2^(n-1)`` recombinations.

The correctness oracle for the other strategies and the baseline of the
pruning benchmarks. With ``keep_all=True`` the full cost landscape is
recorded in ``extras["all_costs"]`` (used by the coupled-vs-additive
benchmark to rank every configuration).
"""

from __future__ import annotations

from repro.core.configuration import IndexConfiguration, IndexedSubpath
from repro.core.cost_matrix import CostMatrix
from repro.search.base import (
    SearchResult,
    record_search,
    register_strategy,
    resolve_recorder,
)
from repro.search.partitions import enumerate_partitions


@register_strategy("exhaustive")
class ExhaustiveStrategy:
    """Full enumeration with per-subpath best organizations."""

    name = "exhaustive"

    def __init__(self, keep_all: bool = False) -> None:
        self.keep_all = keep_all

    def search(
        self,
        matrix: CostMatrix,
        *,
        keep_trace: bool = False,
        deadline=None,
        recorder=None,
    ) -> SearchResult:
        recorder = resolve_recorder(recorder)
        with recorder.span(f"search.{self.name}", length=matrix.length) as span:
            result = self._search(matrix, keep_trace=keep_trace, deadline=deadline)
            span.note(evaluated=result.evaluated)
        return record_search(recorder, result)

    def _search(
        self, matrix: CostMatrix, *, keep_trace: bool = False, deadline=None
    ) -> SearchResult:
        best_cost = float("inf")
        best: IndexConfiguration | None = None
        evaluated = 0
        trace: list[str] = []
        all_costs: list[tuple[IndexConfiguration, float]] = []
        for blocks in enumerate_partitions(matrix.length):
            if deadline is not None:
                deadline.check("exhaustive")
            evaluated += 1
            parts = []
            total = 0.0
            for start, end in blocks:
                minimum = matrix.min_cost(start, end)
                parts.append(IndexedSubpath(start, end, minimum.organization))
                total += minimum.cost
            configuration = IndexConfiguration(tuple(parts))
            if self.keep_all:
                all_costs.append((configuration, total))
            if keep_trace:
                trace.append(
                    "candidate {"
                    + ", ".join(f"S[{s},{e}]" for s, e in blocks)
                    + f"}} cost {total:g}"
                )
            if total < best_cost:
                best_cost = total
                best = configuration
        assert best is not None
        return SearchResult(
            configuration=best,
            cost=best_cost,
            evaluated=evaluated,
            pruned=0,
            trace=trace,
            strategy=self.name,
            extras={"all_costs": all_costs},
        )
