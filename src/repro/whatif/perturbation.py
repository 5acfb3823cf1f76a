"""Declarative perturbations over statistics and workloads.

A what-if question is a small delta against the current inputs: "what if
``Division`` deletions doubled?", "what if the ending class grew to a
million objects?". A :class:`Perturbation` captures one such delta in a
form that can be parsed from the CLI (``Class:component*factor`` /
``Class:component=value``), from a JSON step document, or constructed
directly — and applied to an immutable ``(stats, load)`` pair to produce
the perturbed inputs an :class:`~repro.whatif.AdvisorSession` consumes.

Load components (``query``/``insert``/``delete``) rebuild the
:class:`~repro.workload.load.LoadDistribution` with one triplet replaced;
stats components (``objects``/``distinct``/``fanout``) rebuild the
:class:`~repro.costmodel.params.PathStatistics` with one
:class:`~repro.costmodel.params.ClassStats` replaced. Both constructions
go through the normal validating constructors, so a perturbation can
never produce inputs the cost model would reject at evaluation time.
:func:`apply_perturbations` applies a whole batch with one rebuild per
side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.costmodel.params import ClassStats, PathStatistics
from repro.errors import OptimizerError
from repro.workload.load import LoadDistribution, LoadTriplet

#: Components that perturb the workload triplet of a class.
LOAD_COMPONENTS = ("query", "insert", "delete")

#: Components that perturb the class statistics of a class.
STATS_COMPONENTS = ("objects", "distinct", "fanout")


@dataclass(frozen=True)
class Perturbation:
    """One atomic what-if delta: a class, a component, and a change.

    ``mode`` is ``"scale"`` (multiply the current value by ``value``) or
    ``"set"`` (replace it). The component determines whether the workload
    or the statistics change; :attr:`kind` reports which.
    """

    class_name: str
    component: str
    mode: str
    value: float

    def __post_init__(self) -> None:
        if self.component not in LOAD_COMPONENTS + STATS_COMPONENTS:
            raise OptimizerError(
                f"unknown perturbation component {self.component!r} "
                f"(load: {', '.join(LOAD_COMPONENTS)}; "
                f"stats: {', '.join(STATS_COMPONENTS)})"
            )
        if self.mode not in ("scale", "set"):
            raise OptimizerError(
                f"perturbation mode must be 'scale' or 'set', got {self.mode!r}"
            )
        if not self.value >= 0:
            raise OptimizerError(
                f"perturbation value must be a non-negative number, got "
                f"{self.value}"
            )

    @property
    def kind(self) -> str:
        """``"load"`` or ``"stats"``."""
        return "load" if self.component in LOAD_COMPONENTS else "stats"

    def describe(self) -> str:
        """Compact human-readable form (also the CLI flag syntax)."""
        operator = "*" if self.mode == "scale" else "="
        return f"{self.class_name}:{self.component}{operator}{self.value:g}"

    # ------------------------------------------------------------------
    # application
    # ------------------------------------------------------------------
    def apply(
        self, stats: PathStatistics, load: LoadDistribution
    ) -> tuple[PathStatistics, LoadDistribution]:
        """The perturbed ``(stats, load)`` pair (inputs are immutable).

        Exactly one of the two objects is replaced; the other is returned
        unchanged (by identity), which is what lets
        :meth:`~repro.core.cost_matrix.CostMatrix.recompute` skip its
        dirty analysis for the untouched side. The one-perturbation case
        of :func:`apply_perturbations`.
        """
        return apply_perturbations((self,), stats, load)

    def _updated(self, current: float) -> float:
        return current * self.value if self.mode == "scale" else self.value

    # ------------------------------------------------------------------
    # parsing
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "Perturbation":
        """Parse the flag syntax ``Class:component*factor`` / ``=value``."""
        head, separator, tail = text.partition(":")
        if not separator or not head:
            raise OptimizerError(
                f"cannot parse perturbation {text!r}: expected "
                f"'Class:component*factor' or 'Class:component=value'"
            )
        for operator, mode in (("*", "scale"), ("=", "set")):
            component, found, raw = tail.partition(operator)
            if found:
                try:
                    value = float(raw)
                except ValueError:
                    raise OptimizerError(
                        f"cannot parse perturbation value {raw!r} in {text!r}"
                    ) from None
                return cls(
                    class_name=head, component=component, mode=mode, value=value
                )
        raise OptimizerError(
            f"cannot parse perturbation {text!r}: missing '*' or '='"
        )

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Perturbation":
        """Parse one JSON step: ``{"class", "component", "scale"|"set"}``."""
        if not isinstance(data, dict):
            raise OptimizerError(
                f"perturbation step must be an object, got {type(data).__name__}"
            )
        unknown = set(data) - {"class", "component", "scale", "set"}
        if unknown:
            raise OptimizerError(
                f"unknown perturbation keys: {sorted(unknown)}"
            )
        try:
            class_name = data["class"]
            component = data["component"]
        except KeyError as error:
            raise OptimizerError(
                f"perturbation step missing required key {error}"
            ) from None
        has_scale = "scale" in data
        has_set = "set" in data
        if has_scale == has_set:
            raise OptimizerError(
                "perturbation step needs exactly one of 'scale' or 'set'"
            )
        mode = "scale" if has_scale else "set"
        raw = data[mode]
        try:
            value = float(raw)
        except (TypeError, ValueError):
            raise OptimizerError(
                f"perturbation {mode!r} value must be a number, got {raw!r}"
            ) from None
        return cls(
            class_name=class_name,
            component=component,
            mode=mode,
            value=value,
        )

    def to_dict(self) -> dict[str, Any]:
        """The JSON step form accepted by :meth:`from_dict`."""
        return {
            "class": self.class_name,
            "component": self.component,
            self.mode: self.value,
        }


def apply_perturbations(
    perturbations: Iterable[Perturbation],
    stats: PathStatistics,
    load: LoadDistribution,
) -> tuple[PathStatistics, LoadDistribution]:
    """The ``(stats, load)`` pair after applying ``perturbations`` in order.

    On every class of the path's scope, value for value what chaining
    :meth:`Perturbation.apply` over the batch returns, with each side
    rebuilt at most once. The batch walks per-class dicts; every
    perturbation still checks its class name and builds its
    :class:`LoadTriplet` or :class:`ClassStats` through the validating
    constructor, so an illegal intermediate state raises at the same
    perturbation, with the same error, as the chain. Then one
    :class:`LoadDistribution` and one :class:`PathStatistics` are built
    for the sides the batch touched; an untouched side is returned
    unchanged (by identity).
    """
    triplets: dict[str, LoadTriplet] | None = None
    per_class: dict[str, ClassStats] | None = None
    for perturbation in perturbations:
        name = perturbation.class_name
        if perturbation.kind == "load":
            if triplets is None:
                triplets = dict(load.items())
            # The lookup on ``load`` rejects a class outside the scope.
            current = triplets[name] if name in triplets else load.triplet(name)
            values = {
                "query": current.query,
                "insert": current.insert,
                "delete": current.delete,
            }
            values[perturbation.component] = perturbation._updated(
                values[perturbation.component]
            )
            triplets[name] = LoadTriplet(**values)
        else:
            if per_class is None:
                per_class = {
                    member: stats.stats_of(member)
                    for position in range(1, stats.length + 1)
                    for member in stats.members(position)
                }
            # The lookup on ``stats`` rejects a class it has no entry for.
            current_stats = (
                per_class[name] if name in per_class else stats.stats_of(name)
            )
            fields = {
                "objects": current_stats.objects,
                "distinct": current_stats.distinct,
                "fanout": current_stats.fanout,
            }
            fields[perturbation.component] = perturbation._updated(
                fields[perturbation.component]
            )
            per_class[name] = ClassStats(**fields)
    if triplets is not None:
        load = LoadDistribution(load.path, triplets)
    if per_class is not None:
        stats = PathStatistics(stats.path, per_class, stats.config)
    return stats, load


def perturbations_between(
    old_stats: PathStatistics,
    old_load: LoadDistribution,
    new_stats: PathStatistics,
    new_load: LoadDistribution,
) -> list[Perturbation]:
    """The ``set``-mode perturbations turning one input pair into another.

    Compares the two pairs component by component (per scope class:
    query/insert/delete frequencies and objects/distinct/fanout
    statistics) and emits one ``set`` perturbation per difference —
    classes in scope order, per-class component order chosen so every
    intermediate single-field state passes the validating constructors —
    so ``apply``-ing the returned list to ``(old_stats, old_load)``
    reproduces ``(new_stats, new_load)`` value for value.
    This is how the trace layer turns a windowed workload estimate into
    a batch for :meth:`~repro.whatif.AdvisorSession.apply_many`. Both
    pairs must describe the same path.
    """
    if str(old_stats.path) != str(new_stats.path):
        raise OptimizerError(
            f"cannot diff statistics of different paths "
            f"({old_stats.path} vs {new_stats.path})"
        )
    deltas: list[Perturbation] = []
    if new_load is not old_load:
        for name, triplet in new_load.items():
            old_triplet = old_load.triplet(name)
            for component in LOAD_COMPONENTS:
                value = getattr(triplet, component)
                if value != getattr(old_triplet, component):
                    deltas.append(
                        Perturbation(
                            class_name=name,
                            component=component,
                            mode="set",
                            value=value,
                        )
                    )
    if new_stats is not old_stats:
        for position in range(1, new_stats.length + 1):
            for member in new_stats.members(position):
                current = new_stats.stats_of(member)
                previous = old_stats.stats_of(member)
                diffs = {
                    component: getattr(current, component)
                    for component in STATS_COMPONENTS
                    if getattr(current, component) != getattr(previous, component)
                }
                if not diffs:
                    continue
                # Each set replaces one field through the validating
                # ClassStats constructor, so the emission order must keep
                # every intermediate state legal: grow the capacity bound
                # (fanout, objects) first, move distinct while capacity
                # is maximal, shrink capacity last.
                order = [
                    component
                    for component in ("fanout", "objects")
                    if component in diffs
                    and diffs[component] > getattr(previous, component)
                ]
                if "distinct" in diffs:
                    order.append("distinct")
                order.extend(
                    component
                    for component in ("objects", "fanout")
                    if component in diffs
                    and diffs[component] < getattr(previous, component)
                )
                deltas.extend(
                    Perturbation(
                        class_name=member,
                        component=component,
                        mode="set",
                        value=diffs[component],
                    )
                    for component in order
                )
    return deltas


def parse_steps(document: Any) -> list[Perturbation]:
    """Parse a perturbation-sequence document (the CLI ``--steps`` file).

    Accepts either a bare JSON list of step objects or ``{"steps": [...]}``.
    """
    if isinstance(document, dict):
        if set(document) != {"steps"}:
            raise OptimizerError(
                "perturbation document must be a list of steps or "
                '{"steps": [...]}'
            )
        document = document["steps"]
    if not isinstance(document, list):
        raise OptimizerError(
            f"perturbation steps must be a list, got {type(document).__name__}"
        )
    return [Perturbation.from_dict(step) for step in document]
