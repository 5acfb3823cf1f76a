"""``Opt_Ind_Con``: the paper's branch-and-bound strategy (Section 5).

The procedure recombines the original path from subpaths. Starting from
the degree-1 configuration, the path is repeatedly split into a first
piece and a remainder; a branch is cut as soon as the accumulated cost of
the chosen pieces reaches the best complete configuration seen so far
(``PC >= PC_min``). The recursion order matches the paper's worked
example exactly — first pieces are tried longest-first — so the Figure 6
walkthrough can be replayed step by step (see
``benchmarks/bench_fig6_walkthrough.py``).
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
from repro.search.partitions import enumerate_first_pieces


def _negative_tail_bound(matrix: CostMatrix) -> list[float]:
    """``tail[p]``: an admissible lower bound on the blocks covering
    ``p..length``.

    ``tail[p] = sum(min(0, cheapest row starting at q) for q in
    p..length)``, summed right to left, with a zero sentinel at
    ``length + 1``. Blocks covering ``p..length`` start at distinct
    positions ``q >= p`` and each costs at least the cheapest row
    starting at its ``q``, so the sum of the negative parts bounds them
    from below. It is identically zero for the cost model's non-negative
    matrices (so the paper's ``PC >= PC_min`` rule and the Figure 6
    walkthrough are untouched) and keeps the prune sound for literal
    matrices with negative entries.
    """
    length = matrix.length
    tail = [0.0] * (length + 2)
    for start in range(length, 0, -1):
        cheapest = min(
            matrix.min_cost(start, end).cost
            for end in range(start, length + 1)
        )
        tail[start] = tail[start + 1] + min(0.0, cheapest)
    return tail


@register_strategy("branch_and_bound")
class BranchAndBoundStrategy:
    """Exact search with the paper's ``PC >= PC_min`` pruning rule."""

    name = "branch_and_bound"

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
            span.note(evaluated=result.evaluated, pruned=result.pruned)
        return record_search(recorder, result)

    def _search(
        self, matrix: CostMatrix, *, keep_trace: bool = False, deadline=None
    ) -> SearchResult:
        length = matrix.length
        trace: list[str] = []

        tail_bound = _negative_tail_bound(matrix)

        state = {
            "best_cost": float("inf"),
            "best_parts": None,
            "evaluated": 0,
            "pruned": 0,
        }

        def note(message: str) -> None:
            if keep_trace:
                trace.append(message)

        def parts_label(parts: list[IndexedSubpath]) -> str:
            return "{" + ", ".join(f"S[{p.start},{p.end}]" for p in parts) + "}"

        def evaluate_candidate(
            parts: list[IndexedSubpath], cost: float
        ) -> None:
            state["evaluated"] += 1
            if cost < state["best_cost"]:
                state["best_cost"] = cost
                state["best_parts"] = list(parts)
                note(f"candidate {parts_label(parts)} cost {cost:g} -> new best")
            else:
                note(f"candidate {parts_label(parts)} cost {cost:g}")

        def explore(
            start: int, prefix: list[IndexedSubpath], prefix_cost: float
        ) -> None:
            if deadline is not None:
                deadline.check("branch_and_bound")
            # Complete candidate: the prefix plus the unsplit remainder.
            remainder = matrix.min_cost(start, length)
            candidate = prefix + [
                IndexedSubpath(start, length, remainder.organization)
            ]
            evaluate_candidate(candidate, prefix_cost + remainder.cost)
            # Split points: first piece start..k, longest first (the paper
            # splits off S_{1,n-1} before S_{1,n-2} and so on).
            for piece_start, k in enumerate_first_pieces(start, length):
                piece = matrix.min_cost(piece_start, k)
                accumulated = prefix_cost + piece.cost
                if accumulated + tail_bound[k + 1] >= state["best_cost"]:
                    state["pruned"] += 1
                    note(
                        f"prune: {parts_label(prefix)} + S[{piece_start},{k}] "
                        f"accumulates {accumulated + tail_bound[k + 1]:g} "
                        f">= {state['best_cost']:g}"
                    )
                    continue
                explore(
                    k + 1,
                    prefix + [IndexedSubpath(piece_start, k, piece.organization)],
                    accumulated,
                )

        explore(1, [], 0.0)
        best_parts = state["best_parts"]
        assert best_parts is not None
        return SearchResult(
            configuration=IndexConfiguration(tuple(best_parts)),
            cost=state["best_cost"],
            evaluated=state["evaluated"],
            pruned=state["pruned"],
            trace=trace,
            strategy=self.name,
        )
