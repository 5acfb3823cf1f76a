"""Dynamic-programming strategies: exact optimum in O(n²) row lookups.

The objective is additive over contiguous blocks (Proposition 4.2), so the
classic interval-partition recurrence

.. math::

    best(i) = \\min_{j \\ge i} \\; rowmin(i, j) + best(j + 1)

yields the same optimum as exhaustive enumeration while inspecting each of
the ``n(n+1)/2`` matrix rows exactly once. The paper proposes branch and
bound instead; this strategy is the correctness oracle and the natural
"what a modern treatment would do" comparison point for the scaling
benchmarks. ``extras["rows_inspected"]`` reports the lookup count.

The module also hosts :class:`IncrementalDynamicProgramStrategy`
(registered as ``"incremental_dynamic_program"``), the what-if variant:
it keeps the ``best``/``choice`` tables between searches and
:meth:`~IncrementalDynamicProgramStrategy.refine`\\ s them against the
exact dirty-row set a :meth:`~repro.core.cost_matrix.CostMatrix.recompute`
reports. Only positions at or below the largest dirty start can change,
and the descent stops early once every re-relaxed suffix value comes back
unchanged — so a what-if step's search cost tracks the dirty set, not the
path length. Fresh-vs-incremental equality is pinned by the Hypothesis
property in ``tests/test_whatif_session.py``.
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


def _relax_position(
    matrix: CostMatrix, start: int, best: list[float]
) -> tuple[float, int, int]:
    """One DP relaxation: the cheapest block split starting at ``start``.

    Returns ``(value, chosen end, rows inspected)``. Ties keep the
    earliest ``end`` (strict ``<``), which both strategies rely on for
    platform-stable configurations — the incremental refinement must make
    exactly the same tie decisions as a fresh run.
    """
    length = matrix.length
    best_cost = float("inf")
    best_end = start
    rows = 0
    for end in range(start, length + 1):
        rows += 1
        candidate = matrix.min_cost(start, end).cost + best[end + 1]
        if candidate < best_cost:
            best_cost = candidate
            best_end = end
    return best_cost, best_end, rows


def _fill_tables(
    matrix: CostMatrix, keep_trace: bool, deadline=None
) -> tuple[list[float], list[int], int, list[str]]:
    """The full downward sweep: ``(best, choice, rows inspected, trace)``.

    Shared by both DP strategies so their relaxation order, tie handling
    and trace format can never drift apart. ``deadline`` (a
    :class:`~repro.resilience.Deadline`) is checked once per position.
    """
    length = matrix.length
    # best[i] = minimal cost of covering positions i..length;
    # best[length+1] = 0.
    best: list[float] = [0.0] * (length + 2)
    choice: list[int] = [0] * (length + 2)
    rows = 0
    trace: list[str] = []
    for start in range(length, 0, -1):
        if deadline is not None:
            deadline.check("dynamic_program")
        best[start], choice[start], inspected = _relax_position(
            matrix, start, best
        )
        rows += inspected
        if keep_trace:
            trace.append(
                f"best({start}) = {best[start]:g} via S[{start},{choice[start]}]"
            )
    return best, choice, rows, trace


def _configuration_from_tables(
    matrix: CostMatrix, choice: list[int]
) -> IndexConfiguration:
    """Reconstruct the optimal configuration by walking the choice table."""
    parts: list[IndexedSubpath] = []
    cursor = 1
    while cursor <= matrix.length:
        end = choice[cursor]
        minimum = matrix.min_cost(cursor, end)
        parts.append(IndexedSubpath(cursor, end, minimum.organization))
        cursor = end + 1
    return IndexConfiguration(tuple(parts))


@register_strategy("dynamic_program")
class DynamicProgramStrategy:
    """Interval-partition DP over the precomputed row minima."""

    name = "dynamic_program"

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
            span.note(rows_inspected=result.extras["rows_inspected"])
        return record_search(recorder, result)

    def _search(
        self, matrix: CostMatrix, *, keep_trace: bool = False, deadline=None
    ) -> SearchResult:
        best, choice, rows, trace = _fill_tables(matrix, keep_trace, deadline)
        # The DP never costs a complete candidate configuration, so
        # ``evaluated`` stays 0; its work measure is the row-lookup count.
        return SearchResult(
            configuration=_configuration_from_tables(matrix, choice),
            cost=best[1],
            evaluated=0,
            pruned=0,
            trace=trace,
            strategy=self.name,
            extras={"rows_inspected": rows},
        )


@register_strategy("incremental_dynamic_program")
class IncrementalDynamicProgramStrategy:
    """The interval-partition DP with reusable tables for what-if loops.

    A fresh :meth:`search` fills the same ``best``/``choice`` tables as
    :class:`DynamicProgramStrategy` (identical relaxation, identical tie
    handling) and keeps them on the instance. :meth:`refine` then accepts
    the updated matrix together with the exact set of rows the update
    touched and re-relaxes only what those rows can reach:

    * a dirty row ``(s, e)`` changes ``rowmin(s, ·)``, so ``best(s)``
      must be re-relaxed — and transitively every ``best(i)`` for
      ``i < s`` *if* some re-relaxed suffix value actually changed;
    * positions above the largest dirty start are untouched by
      construction, and the downward sweep stops early once no suffix
      value has changed and no dirty start remains below.

    The instance is stateful by design: a
    :class:`~repro.whatif.AdvisorSession` owns one per path. Used through
    the plain registry/:func:`~repro.search.get_strategy` path it behaves
    exactly like ``dynamic_program`` (every ``search`` call refills the
    tables), so it is safe to select via ``advise(strategy=...)``.
    """

    name = "incremental_dynamic_program"

    def __init__(self) -> None:
        self._length: int | None = None
        self._best: list[float] | None = None
        self._choice: list[int] | None = None

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
            result = self._fresh_search(
                matrix, keep_trace=keep_trace, deadline=deadline
            )
            span.note(rows_inspected=result.extras["rows_inspected"])
        return record_search(recorder, result)

    def _fresh_search(
        self, matrix: CostMatrix, *, keep_trace: bool = False, deadline=None
    ) -> SearchResult:
        best, choice, rows, trace = _fill_tables(matrix, keep_trace, deadline)
        self._length = matrix.length
        self._best = best
        self._choice = choice
        return self._result(
            matrix, trace, rows=rows, relaxed=matrix.length, reused=0
        )

    def refine(
        self,
        matrix: CostMatrix,
        dirty_rows,
        *,
        keep_trace: bool = False,
        deadline=None,
        recorder=None,
    ) -> SearchResult:
        """Re-solve against ``matrix`` given the rows that changed.

        ``dirty_rows`` must contain every row of ``matrix`` whose
        ``min_cost`` may differ from the matrix the current tables were
        computed against (a superset is fine; the caller typically passes
        the union of :class:`~repro.core.cost_matrix.RecomputeReport`
        dirty sets since the last search). Without usable tables — first
        call, or a different path length — this degrades to a fresh
        :meth:`search`.

        The refinement is *atomic with respect to deadlines*: it works on
        copies of the stored tables and commits them only on completion,
        so a :class:`~repro.errors.DeadlineExceeded` raised mid-descent
        leaves the previous (internally consistent) tables in place and
        the caller's dirty set still pending — a later unbounded call
        recovers exactness.
        """
        recorder = resolve_recorder(recorder)
        if (
            self._best is None
            or self._choice is None
            or self._length != matrix.length
        ):
            return self.search(
                matrix, keep_trace=keep_trace, deadline=deadline,
                recorder=recorder,
            )
        with recorder.span(
            f"search.{self.name}.refine",
            length=matrix.length,
            dirty=len(set(dirty_rows)),
        ) as span:
            result = self._refine_tables(
                matrix, dirty_rows, keep_trace=keep_trace, deadline=deadline
            )
            span.note(rows_inspected=result.extras["rows_inspected"])
        return record_search(recorder, result)

    def _refine_tables(
        self,
        matrix: CostMatrix,
        dirty_rows,
        *,
        keep_trace: bool = False,
        deadline=None,
    ) -> SearchResult:
        """The table-reusing descent behind :meth:`refine`."""
        dirty_starts = {start for start, _end in dirty_rows}
        best = list(self._best)
        choice = list(self._choice)
        trace: list[str] = []
        rows = 0
        relaxed = 0
        if dirty_starts:
            high = max(dirty_starts)
            low = min(dirty_starts)
            suffix_changed = False
            for start in range(high, 0, -1):
                if not suffix_changed and start not in dirty_starts:
                    if start < low:
                        # No dirty start remains below and every
                        # re-relaxed suffix value came back unchanged:
                        # the stored prefix is already the fresh answer.
                        break
                    continue
                if deadline is not None:
                    deadline.check("incremental_dynamic_program.refine")
                old_value = best[start]
                value, end, inspected = _relax_position(matrix, start, best)
                rows += inspected
                relaxed += 1
                best[start] = value
                choice[start] = end
                if value != old_value:
                    suffix_changed = True
                if keep_trace:
                    marker = "changed" if value != old_value else "unchanged"
                    trace.append(
                        f"best({start}) = {value:g} via S[{start},{end}] "
                        f"({marker})"
                    )
        self._best = best
        self._choice = choice
        return self._result(
            matrix,
            trace,
            rows=rows,
            relaxed=relaxed,
            reused=matrix.length - relaxed,
        )

    def _result(
        self,
        matrix: CostMatrix,
        trace: list[str],
        *,
        rows: int,
        relaxed: int,
        reused: int,
    ) -> SearchResult:
        return SearchResult(
            configuration=_configuration_from_tables(matrix, self._choice),
            cost=self._best[1],
            evaluated=0,
            pruned=0,
            trace=trace,
            strategy=self.name,
            extras={
                "rows_inspected": rows,
                "relaxed_positions": relaxed,
                "reused_positions": reused,
            },
        )
