"""The deadline degradation ladder: exact → shrinking beam → last good.

When an exact search raises :class:`~repro.errors.DeadlineExceeded`,
the advisor still owes *an* answer — a worse-but-valid configuration
now beats an optimal one later. :func:`degraded_search` walks the
explicit ladder the strategy registry makes possible:

1. (the caller already tried) the exact strategy under the deadline;
2. ``greedy_beam`` with shrinking widths (:data:`BEAM_LADDER`), each
   attempt still under the same deadline;
3. the last-known-good configuration re-priced against the *current*
   matrix (O(blocks), no search at all);
4. with no last-known-good available, a width-1 beam run *without*
   deadline enforcement — the advisor must answer, so this final rung
   is allowed to overrun and says so in its rung label.

Every rung taken is recorded in the caller's
:class:`~repro.resilience.DegradationReport`; the winning rung is
stamped into ``result.extras["rung"]`` (exact answers carry no stamp —
absence means ``"exact"``).
"""

from __future__ import annotations

from repro.core.evaluation import configuration_cost
from repro.errors import DeadlineExceeded
from repro.search.base import SearchResult
from repro.search.greedy_beam import GreedyBeamStrategy

#: Beam widths tried, in order, when the exact rung misses its deadline.
BEAM_LADDER = (8, 4, 2)

#: ``SearchResult.strategy`` of an answer taken from the last-known-good
#: configuration (rung 3): no search ran, the configuration was re-priced.
LAST_KNOWN_GOOD = "last_known_good"


def degraded_search(
    matrix,
    *,
    deadline,
    last_known_good: SearchResult | None = None,
    degradation=None,
    keep_trace: bool = False,
    layer: str = "session",
    reason: str = "deadline_expired",
    recorder=None,
) -> SearchResult:
    """Answer from the cheapest rung that fits the remaining budget.

    Called after the exact rung already raised
    :class:`~repro.errors.DeadlineExceeded`. Always returns a result.
    The winning rung also lands on the ``resilience.degradations``
    counter of ``recorder`` (a :class:`~repro.obs.Recorder`), labeled by
    layer and rung.
    """
    from repro.obs.recorder import resolve_recorder

    recorder = resolve_recorder(recorder)

    def count_rung(rung: str) -> None:
        recorder.counter(
            "resilience.degradations", layer=layer, action=rung
        ).add()

    for width in BEAM_LADDER:
        if deadline.expired:
            break
        try:
            result = GreedyBeamStrategy(width=width).search(
                matrix, keep_trace=keep_trace, deadline=deadline,
                recorder=recorder,
            )
        except DeadlineExceeded:
            continue
        rung = f"greedy_beam:{width}"
        result.extras["rung"] = rung
        result.extras["degraded"] = True
        count_rung(rung)
        if degradation is not None:
            degradation.record(layer, "greedy_beam", reason, width=width)
        return result

    if last_known_good is not None:
        cost = configuration_cost(matrix, last_known_good.configuration)
        count_rung(LAST_KNOWN_GOOD)
        if degradation is not None:
            degradation.record(layer, LAST_KNOWN_GOOD, reason)
        return SearchResult(
            configuration=last_known_good.configuration,
            cost=cost,
            evaluated=0,
            pruned=0,
            trace=[],
            strategy=LAST_KNOWN_GOOD,
            extras={"rung": LAST_KNOWN_GOOD, "degraded": True},
        )

    # No previous answer to fall back on: the bottom rung must run to
    # completion even though the budget is spent. Width 1 is the
    # cheapest complete sweep the registry offers.
    result = GreedyBeamStrategy(width=1).search(
        matrix, keep_trace=keep_trace, recorder=recorder
    )
    result.extras["rung"] = "greedy_beam:1:overrun"
    result.extras["degraded"] = True
    count_rung("greedy_beam:1:overrun")
    if degradation is not None:
        degradation.record(
            layer, "greedy_beam_overrun", reason, width=1
        )
    return result
