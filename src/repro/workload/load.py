"""Load distributions over a path's scope (Section 3.2).

``LD_{A_n}(scope(P)) = {(α_{1,1}, β_{1,1}, γ_{1,1}), ...}``: for every
class of the scope, the frequency of queries against the ending attribute
with respect to that class, and the frequencies of insertions and
deletions on the class.

The subpath rule: for a subpath whose starting class equals the path's
starting class, the distribution restricts unchanged. Otherwise, the query
frequencies of all classes *before* the subpath are added to the subpath's
starting class ("the processing of queries with regard to a class in
``scope(C1.A1...A_{k-1})`` against ``A_n`` entails a processing of ``S_k``
as well"); following the paper's formula the mass lands on the hierarchy
root (member 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import WorkloadError
from repro.model.path import Path


@dataclass(frozen=True)
class LoadTriplet:
    """Frequencies ``(α, β, γ)`` for one class.

    ``query`` is the frequency of queries against the path's ending
    attribute with respect to the class; ``insert``/``delete`` are object
    insertion/deletion frequencies on the class.
    """

    query: float = 0.0
    insert: float = 0.0
    delete: float = 0.0

    def __post_init__(self) -> None:
        for name in ("query", "insert", "delete"):
            value = getattr(self, name)
            if value < 0:
                raise WorkloadError(f"negative {name} frequency: {value}")

    @property
    def total(self) -> float:
        """Sum of the three frequencies."""
        return self.query + self.insert + self.delete

    def scaled(self, factor: float) -> "LoadTriplet":
        """All three frequencies multiplied by ``factor``."""
        if factor < 0:
            raise WorkloadError(f"negative scale factor: {factor}")
        return LoadTriplet(
            query=self.query * factor,
            insert=self.insert * factor,
            delete=self.delete * factor,
        )

    def with_query(self, query: float) -> "LoadTriplet":
        """Copy with a different query frequency."""
        return LoadTriplet(query=query, insert=self.insert, delete=self.delete)


#: The triplet of every scope class a distribution omits; frozen, so one
#: instance is shared rather than one validated per class and construction.
_ZERO_TRIPLET = LoadTriplet()


class LoadDistribution:
    """The workload over every class in a path's scope.

    Parameters
    ----------
    path:
        The (full) path whose scope the distribution covers.
    triplets:
        ``{class name: LoadTriplet}``. Classes of the scope that are
        omitted get an all-zero triplet.
    """

    def __init__(self, path: Path, triplets: dict[str, LoadTriplet]) -> None:
        self.path = path
        scope = set(path.scope)
        unknown = set(triplets) - scope
        if unknown:
            raise WorkloadError(
                f"triplets for classes outside scope({path}): {sorted(unknown)}"
            )
        self._triplets = {
            name: triplets.get(name, _ZERO_TRIPLET) for name in path.scope
        }
        # Lazy per-position caches for the subpath derivation: the
        # hierarchy tuples and the running prefix of upstream query mass
        # (position k holds the summed query frequency of positions 1..k,
        # accumulated in the same order as the direct loop).
        self._hierarchies: dict[int, tuple[str, ...]] = {}
        self._query_prefix: list[float] | None = None

    def _hierarchy_at(self, position: int) -> tuple[str, ...]:
        cached = self._hierarchies.get(position)
        if cached is None:
            cached = tuple(self.path.hierarchy_at(position))
            self._hierarchies[position] = cached
        return cached

    def _upstream_query(self, start: int) -> float:
        """Summed query frequency of all classes at positions ``1..start-1``."""
        if self._query_prefix is None:
            prefix = [0.0]
            running = 0.0
            for position in range(1, self.path.length + 1):
                for member in self._hierarchy_at(position):
                    running += self._triplets[member].query
                prefix.append(running)
            self._query_prefix = prefix
        return self._query_prefix[start - 1]

    @classmethod
    def uniform(
        cls,
        path: Path,
        query: float = 1.0,
        insert: float = 0.0,
        delete: float = 0.0,
    ) -> "LoadDistribution":
        """The same triplet on every scope class."""
        triplet = LoadTriplet(query=query, insert=insert, delete=delete)
        return cls(path, {name: triplet for name in path.scope})

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def triplet(self, class_name: str) -> LoadTriplet:
        """The triplet of one scope class."""
        try:
            return self._triplets[class_name]
        except KeyError:
            raise WorkloadError(
                f"class {class_name!r} is not in scope({self.path})"
            ) from None

    def items(self) -> list[tuple[str, LoadTriplet]]:
        """``(class, triplet)`` pairs in scope order."""
        return [(name, self._triplets[name]) for name in self.path.scope]

    def total_frequency(self) -> float:
        """Sum of all frequencies over all classes."""
        return sum(t.total for t in self._triplets.values())

    def scaled(self, factor: float) -> "LoadDistribution":
        """Every triplet multiplied by ``factor``."""
        return LoadDistribution(
            self.path,
            {name: triplet.scaled(factor) for name, triplet in self._triplets.items()},
        )

    # ------------------------------------------------------------------
    # Section 3.2: subpath derivation
    # ------------------------------------------------------------------
    def derived_for_subpath(self, start: int, end: int) -> dict[str, LoadTriplet]:
        """The load on subpath ``S_{start,end}`` derived from this load.

        Returns triplets for every class in the subpath's scope. When
        ``start > 1`` the query frequencies of all classes at positions
        ``1..start-1`` (including their subclasses) are added to the
        subpath's starting class (the hierarchy root member).
        """
        if not 1 <= start <= end <= self.path.length:
            raise WorkloadError(
                f"subpath {start}..{end} out of range for {self.path}"
            )
        derived: dict[str, LoadTriplet] = {}
        for position in range(start, end + 1):
            for member in self._hierarchy_at(position):
                derived[member] = self._triplets[member]
        if start > 1:
            upstream = self._upstream_query(start)
            root = self.path.class_at(start)
            triplet = derived[root]
            derived[root] = triplet.with_query(triplet.query + upstream)
        return derived

    def describe(self) -> str:
        """Figure 7-style rendering of the distribution."""
        lines = [f"load on {self.path}:"]
        for name, triplet in self.items():
            lines.append(
                f"  {name}: ({triplet.query:g}, {triplet.insert:g}, "
                f"{triplet.delete:g})"
            )
        return "\n".join(lines)
