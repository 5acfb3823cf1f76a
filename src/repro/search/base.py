"""Strategy protocol, unified result type and the strategy registry.

The paper's Section 5 pipeline separates *cost evaluation* (``Cost_Matrix``
+ ``Min_Cost``) from *search* (``Opt_Ind_Con``). This module gives the
search half a seam: every searcher implements :class:`SearchStrategy`,
returns a :class:`SearchResult`, and registers itself under a string name
so callers can write ``get_strategy("branch_and_bound")`` — or any future
strategy — without touching the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Protocol, runtime_checkable

from repro.core.configuration import IndexConfiguration, IndexedSubpath
from repro.core.cost_matrix import CostMatrix
from repro.errors import OptimizerError
from repro.model.path import Path
from repro.obs.recorder import resolve_recorder  # noqa: F401  (re-export)
from repro.organizations import IndexOrganization


def _jsonify(value: Any) -> Any:
    """A deterministic JSON-safe projection of a result payload.

    Tuples become lists (what a JSON round-trip would do anyway) and
    anything JSON cannot express becomes its ``str`` — so serialized
    timelines compare stably between a live run and a checkpoint resume.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonify(item) for key, item in value.items()}
    return str(value)


@dataclass
class SearchResult:
    """Unified outcome of any configuration search.

    ``evaluated`` counts the complete candidate configurations whose total
    cost was computed (the quantity the paper reports: "the procedure
    found the optimal configuration by exploring 4 index configurations
    instead of all 8"); ``pruned`` counts branch cuts. The dynamic
    program never costs complete candidates individually, so it reports
    ``evaluated == pruned == 0`` and its work measure in
    ``extras["rows_inspected"]``. ``extras`` also carries the exhaustive
    strategy's ``all_costs``.
    """

    configuration: IndexConfiguration
    cost: float
    evaluated: int
    pruned: int
    trace: list[str] = field(default_factory=list)
    strategy: str = ""
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def work(self) -> str:
        """The strategy's work measure, in its own units."""
        rows = self.extras.get("rows_inspected")
        if rows is not None:
            return f"{rows} row lookups"
        return (
            f"{self.evaluated} configurations evaluated, "
            f"{self.pruned} branches pruned"
        )

    def render(self, path: Path | None = None) -> str:
        """One-line summary in the paper's notation."""
        return (
            f"{self.configuration.render(path)} with processing cost "
            f"{self.cost:.2f} ({self.work})"
        )

    def to_dict(self) -> dict[str, Any]:
        """The JSON object form accepted by :meth:`from_dict`.

        The configuration is spelled as ``[start, end, org]`` triples and
        the float cost rides through JSON's exact ``repr`` round-trip for
        doubles. Checkpoints and replay steps both serialize results
        through here, so the two never drift apart.
        """
        return {
            "configuration": [
                [part.start, part.end, part.organization.value]
                for part in self.configuration.assignments
            ],
            "cost": self.cost,
            "evaluated": self.evaluated,
            "pruned": self.pruned,
            "strategy": self.strategy,
            "trace": _jsonify(self.trace),
            "extras": _jsonify(self.extras),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SearchResult":
        """Rebuild a result from its :meth:`to_dict` form."""
        return cls(
            configuration=IndexConfiguration(
                tuple(
                    IndexedSubpath(start, end, IndexOrganization(organization))
                    for start, end, organization in data["configuration"]
                )
            ),
            cost=data["cost"],
            evaluated=data["evaluated"],
            pruned=data["pruned"],
            trace=list(data["trace"]),
            strategy=data["strategy"],
            extras=dict(data["extras"]),
        )


@runtime_checkable
class SearchStrategy(Protocol):
    """A configuration searcher over one cost matrix.

    ``name`` is the registry key. Every strategy returns the optimum (the
    parity tests assert it). ``deadline`` is an optional
    :class:`~repro.resilience.Deadline` the strategy checks cooperatively
    (once per position / node / partition), raising
    :class:`~repro.errors.DeadlineExceeded` when the budget is spent so
    the degradation ladder above can answer from a cheaper rung.
    ``recorder`` (a :class:`~repro.obs.Recorder`; ``None`` means the
    no-op default) wraps the run in a ``search.<name>`` span and folds
    the evaluated/pruned work counters into the metrics registry —
    every registered strategy accepts it.
    """

    name: str

    def search(
        self,
        matrix: CostMatrix,
        *,
        keep_trace: bool = False,
        deadline=None,
        recorder=None,
    ) -> SearchResult:
        """Select a configuration from ``matrix``."""
        ...


def record_search(recorder, result: SearchResult) -> SearchResult:
    """Fold a finished :class:`SearchResult` into ``recorder``'s metrics.

    One ``search.searches`` tick plus the strategy's own work measure
    (``search.evaluated``/``search.pruned``, and
    ``search.rows_inspected`` for the dynamic programs), all labeled by
    strategy name. Returns the result unchanged so strategies can
    ``return record_search(recorder, result)``.
    """
    if recorder.enabled:
        strategy = result.strategy
        recorder.counter("search.searches", strategy=strategy).add()
        recorder.counter("search.evaluated", strategy=strategy).add(
            result.evaluated
        )
        recorder.counter("search.pruned", strategy=strategy).add(result.pruned)
        rows = result.extras.get("rows_inspected")
        if rows is not None:
            recorder.counter("search.rows_inspected", strategy=strategy).add(
                rows
            )
    return result


_REGISTRY: dict[str, Callable[..., SearchStrategy]] = {}


def register_strategy(
    name: str,
) -> Callable[[Callable[..., SearchStrategy]], Callable[..., SearchStrategy]]:
    """Class decorator: register a strategy factory under ``name``."""

    def decorate(
        factory: Callable[..., SearchStrategy]
    ) -> Callable[..., SearchStrategy]:
        if name in _REGISTRY:
            raise OptimizerError(f"search strategy {name!r} already registered")
        _REGISTRY[name] = factory
        return factory

    return decorate


def available_strategies() -> tuple[str, ...]:
    """The registered strategy names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_strategy(name: str, **options: Any) -> SearchStrategy:
    """Instantiate the strategy registered under ``name``.

    Keyword options are forwarded to the strategy constructor (e.g.
    ``get_strategy("exhaustive", keep_all=True)``).
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(available_strategies())
        raise OptimizerError(
            f"unknown search strategy {name!r} (available: {known})"
        ) from None
    try:
        return factory(**options)
    except TypeError as error:
        raise OptimizerError(
            f"invalid options for search strategy {name!r}: {error}"
        ) from None
