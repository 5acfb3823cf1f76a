"""The deadline degradation ladder: exact → last good → overrun DP.

When an exact search raises :class:`~repro.errors.DeadlineExceeded`,
the advisor still owes *an* answer. :func:`degraded_search` walks the
explicit ladder:

1. (the caller already tried) the chosen strategy under the deadline;
2. the last-known-good configuration re-priced against the *current*
   matrix (O(blocks), no search at all);
3. with no last-known-good available, the dynamic program run *without*
   deadline enforcement — the advisor must answer, so this final rung
   is allowed to overrun and says so in its rung label. It is exact, so
   a missed deadline with nothing cached costs latency, not quality.

Every rung taken is recorded in the caller's
:class:`~repro.resilience.DegradationReport`; the winning rung is
stamped into ``result.extras["rung"]`` (exact answers carry no stamp —
absence means ``"exact"``).
"""

from __future__ import annotations

from repro.core.evaluation import configuration_cost
from repro.obs.recorder import resolve_recorder
from repro.search.base import SearchResult
from repro.search.dynamic_program import DynamicProgramStrategy

#: ``SearchResult.strategy`` of an answer taken from the last-known-good
#: configuration: no search ran, the configuration was re-priced.
LAST_KNOWN_GOOD = "last_known_good"

#: Rung label of the dynamic program run past the deadline.
OVERRUN = "dynamic_program:overrun"


def degraded_search(
    matrix,
    *,
    last_known_good: SearchResult | None = None,
    degradation=None,
    keep_trace: bool = False,
    layer: str = "session",
    recorder=None,
) -> SearchResult:
    """Answer from the last-known-good rung, else the overrun DP.

    Called after the exact rung already raised
    :class:`~repro.errors.DeadlineExceeded`. Always returns a result
    marked ``extras["degraded"]``. The winning rung also lands on the
    ``resilience.degradations`` counter of ``recorder`` (a
    :class:`~repro.obs.Recorder`), labeled by layer and rung.
    """
    recorder = resolve_recorder(recorder)
    if last_known_good is not None:
        rung = LAST_KNOWN_GOOD
        result = SearchResult(
            configuration=last_known_good.configuration,
            cost=configuration_cost(matrix, last_known_good.configuration),
            evaluated=0,
            pruned=0,
            trace=[],
            strategy=LAST_KNOWN_GOOD,
        )
    else:
        rung = OVERRUN
        result = DynamicProgramStrategy().search(
            matrix, keep_trace=keep_trace, recorder=recorder
        )
    result.extras["rung"] = rung
    result.extras["degraded"] = True
    recorder.counter("resilience.degradations", layer=layer, action=rung).add()
    if degradation is not None:
        degradation.record(layer, rung, "deadline_expired")
    return result
