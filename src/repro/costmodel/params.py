"""Statistics and configuration: the Table 2 symbols.

:class:`ClassStats` carries the per-class inputs the paper assumes known
(`n_{l,x}` objects, ``d_{l,x}`` distinct values of the path attribute,
``nin_{l,x}`` average values per object — Figure 7's columns).

:class:`PathStatistics` binds those to a :class:`~repro.model.path.Path`
and derives every other Table 2 quantity:

* ``k_{l,x} = n_{l,x} · nin_{l,x} / d_{l,x}`` — objects per value;
* ``par_{l,x} = Σ_j k_{l-1,j}`` — parents of an object;
* ``nin-bar_{l,x}(t)`` — average number of distinct values of the nested
  attribute ``A_t`` held by an object of ``C_{l,x}`` (derived by chaining
  the per-level fanouts, capped by the number of distinct ``A_t`` values);
* hierarchy-wide distinct-value unions for inherited indexes.

:class:`CostModelConfig` collects the physical constants and the paper's
explicit input parameters ``pr_X`` / ``pm_X`` / ``pmd_X`` / ``pmi_X``
(overridable; derived from record shapes when left ``None``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

from repro.errors import CostModelError
from repro.model.path import Path
from repro.storage.sizes import SizeModel


@dataclass(frozen=True)
class ClassStats:
    """Per-class statistics for one path position (a Figure 7 row).

    Attributes
    ----------
    objects:
        ``n_{l,x}`` — number of objects in the class (excluding subclasses).
    distinct:
        ``d_{l,x}`` — number of distinct values of the class's path
        attribute ``A_l`` within the class.
    fanout:
        ``nin_{l,x}`` — average number of values of ``A_l`` per object
        (1 for single-valued attributes).
    """

    objects: float
    distinct: float
    fanout: float = 1.0

    def __post_init__(self) -> None:
        if self.objects < 0:
            raise CostModelError(f"objects must be >= 0, got {self.objects}")
        if self.distinct < 0:
            raise CostModelError(f"distinct must be >= 0, got {self.distinct}")
        if self.fanout < 0:
            raise CostModelError(f"fanout must be >= 0, got {self.fanout}")
        if self.objects > 0 and self.distinct <= 0:
            raise CostModelError("a populated class needs at least one distinct value")
        if self.distinct > self.objects * max(self.fanout, 1.0):
            raise CostModelError(
                "distinct values cannot exceed total attribute instances "
                f"({self.distinct} > {self.objects} * {max(self.fanout, 1.0)})"
            )

    @property
    def k(self) -> float:
        """``k_{l,x}``: average objects sharing one value of ``A_l``."""
        if self.distinct == 0:
            return 0.0
        return self.objects * self.fanout / self.distinct


@dataclass(frozen=True)
class CostModelConfig:
    """Physical constants and the paper's explicit input parameters.

    ``pr``/``pm`` values default to ``None`` meaning "derive from the
    record shape" (``⌈ln/p⌉`` for full-record operations, the class share
    for partial NIX retrievals). The paper states these are inputs, so each
    can be pinned explicitly.

    ``clamp_cardinalities`` keeps Yao's formula well-defined by clamping
    retrieved-record estimates at the number of records that exist; the
    clamp only binds on workloads far more skewed than the paper's.
    """

    sizes: SizeModel = field(default_factory=SizeModel)
    pr_mx: float | None = None
    pm_mx: float | None = None
    pr_mix: float | None = None
    pm_mix: float | None = None
    pr_nix: float | None = None
    pmd_nix: float | None = None
    pmi_nix: float | None = None
    pm_ax: float | None = None
    clamp_cardinalities: bool = True
    #: Optional cap on the union of distinct ending-attribute values across
    #: the ending class hierarchy (e.g. the size of an atomic domain).
    ending_domain_distinct: float | None = None

    def with_sizes(self, sizes: SizeModel) -> "CostModelConfig":
        """A copy with different physical constants."""
        return replace(self, sizes=sizes)


class PathStatistics:
    """Statistics for every class in the scope of a path.

    Parameters
    ----------
    path:
        The (full) path the statistics describe.
    per_class:
        ``{class name: ClassStats}`` for **every** class in ``scope(path)``.
        The stats of a class describe its path attribute: for class
        ``C_{l,x}`` (a member of the hierarchy at position ``l``) they
        describe attribute ``A_l``.
    config:
        Physical constants and model knobs.
    """

    def __init__(
        self,
        path: Path,
        per_class: dict[str, ClassStats],
        config: CostModelConfig | None = None,
    ) -> None:
        self.path = path
        self.config = config or CostModelConfig()
        self.length = path.length
        missing = [name for name in path.scope if name not in per_class]
        if missing:
            raise CostModelError(f"missing ClassStats for scope classes: {missing}")
        self._stats = dict(per_class)
        # Caches keyed by position; statistics are immutable after
        # construction, so the per-position hierarchy aggregates that the
        # cost formulas hammer (every subpath × organization recomputes
        # them) are memoized.
        self._members_cache: dict[int, tuple[str, ...]] = {}
        self._total_objects_cache: dict[int, float] = {}
        self._sum_k_cache: dict[int, float] = {}
        self._mean_fanout_cache: dict[int, float] = {}
        self._distinct_union_cache: dict[int, float] = {}
        # Cross-row evaluation caches: the quantities below depend only on
        # the immutable statistics, yet Cost_Matrix construction recomputes
        # them for every subpath × organization. Keys are plain tuples of
        # positions/names/floats, so identical inputs hit identical entries
        # and the cached evaluation is bit-for-bit equal to the uncached one.
        self._probe_keys_cache: dict[tuple[int, int, float], float] = {}
        self._ninbar_cache: dict[tuple[int, str, int], float] = {}
        self._occupied_cache: dict[tuple[int, float], float] = {}
        self._shape_cache: dict[tuple, object] = {}
        # Persistent columnar lowerings (repro.kernel.arrays.StatArrays)
        # keyed by workload identity; bounded, managed by the kernel.
        self._stat_arrays_cache: list = []

    def __getstate__(self) -> dict:
        """Pickle support for parallel ``Cost_Matrix`` workers.

        The cross-row evaluation caches are dropped: they are rebuilt on
        demand.
        """
        state = self.__dict__.copy()
        state["_probe_keys_cache"] = {}
        state["_ninbar_cache"] = {}
        state["_occupied_cache"] = {}
        state["_shape_cache"] = {}
        state["_stat_arrays_cache"] = []
        return state

    # ------------------------------------------------------------------
    # basic accessors (Table 2)
    # ------------------------------------------------------------------
    def members(self, position: int) -> tuple[str, ...]:
        """Hierarchy members of ``C_l`` (root first): the classes ``C_{l,j}``."""
        cached = self._members_cache.get(position)
        if cached is None:
            cached = tuple(self.path.hierarchy_at(position))
            self._members_cache[position] = cached
        return cached

    def nc(self, position: int) -> int:
        """``nc_l``: number of classes in the hierarchy at position ``l``."""
        return len(self.members(position))

    def stats_of(self, class_name: str) -> ClassStats:
        """The raw :class:`ClassStats` of a scope class."""
        try:
            return self._stats[class_name]
        except KeyError:
            raise CostModelError(f"no statistics for class {class_name!r}") from None

    def n(self, position: int, class_name: str) -> float:
        """``n_{l,x}``: objects in the class."""
        self._check_member(position, class_name)
        return self.stats_of(class_name).objects

    def d(self, position: int, class_name: str) -> float:
        """``d_{l,x}``: distinct values of ``A_l`` in the class."""
        self._check_member(position, class_name)
        return self.stats_of(class_name).distinct

    def nin(self, position: int, class_name: str) -> float:
        """``nin_{l,x}``: average values of ``A_l`` per object."""
        self._check_member(position, class_name)
        return self.stats_of(class_name).fanout

    def k(self, position: int, class_name: str) -> float:
        """``k_{l,x} = n·nin/d``: objects sharing a value."""
        self._check_member(position, class_name)
        return self.stats_of(class_name).k

    # ------------------------------------------------------------------
    # hierarchy aggregates
    # ------------------------------------------------------------------
    def total_objects(self, position: int) -> float:
        """``Σ_j n_{l,j}``: objects across the whole hierarchy at ``l``."""
        cached = self._total_objects_cache.get(position)
        if cached is None:
            cached = sum(
                self.stats_of(name).objects for name in self.members(position)
            )
            self._total_objects_cache[position] = cached
        return cached

    def sum_k(self, position: int) -> float:
        """``Σ_j k_{l,j}``: hierarchy-wide fan-in of one value of ``A_l``."""
        cached = self._sum_k_cache.get(position)
        if cached is None:
            cached = sum(
                self.stats_of(name).k for name in self.members(position)
            )
            self._sum_k_cache[position] = cached
        return cached

    def mean_fanout(self, position: int) -> float:
        """Object-weighted mean ``nin`` across the hierarchy at ``l``."""
        cached = self._mean_fanout_cache.get(position)
        if cached is not None:
            return cached
        total = self.total_objects(position)
        if total == 0:
            value = 0.0
        else:
            weighted = sum(
                self.stats_of(name).objects * self.stats_of(name).fanout
                for name in self.members(position)
            )
            value = weighted / total
        self._mean_fanout_cache[position] = value
        return value

    def distinct_union(self, position: int) -> float:
        """Distinct values of ``A_l`` across the whole hierarchy.

        For reference attributes the union cannot exceed the population of
        the next hierarchy on the path; for the ending attribute an
        optional domain cap from the config applies. Within those caps we
        use the sum of per-class counts (disjoint-worst-case), which is the
        estimate the paper's per-class ``d`` figures support.
        """
        cached = self._distinct_union_cache.get(position)
        if cached is not None:
            return cached
        total = sum(self.stats_of(name).distinct for name in self.members(position))
        if position < self.length:
            cap = self.total_objects(position + 1)
            value = min(total, cap) if cap > 0 else total
        elif self.config.ending_domain_distinct is not None:
            value = min(total, self.config.ending_domain_distinct)
        else:
            value = total
        self._distinct_union_cache[position] = value
        return value

    # ------------------------------------------------------------------
    # derived Table 2 quantities
    # ------------------------------------------------------------------
    def par(self, position: int) -> float:
        """``par_{l,x} = Σ_j k_{l-1,j}``: parents of an object at ``l``.

        Defined for ``position >= 2``; objects of the starting class have
        no parents along the path.
        """
        if position < 2:
            return 0.0
        return self.sum_k(position - 1)

    def ninbar(self, position: int, class_name: str, end: int) -> float:
        """``nin-bar``: values of nested attribute ``A_end`` per object.

        Chained fanout from the class's own attribute through the
        object-weighted mean fanouts of the intermediate levels, capped by
        the number of distinct ``A_end`` values (an object cannot reach
        more values than exist).
        """
        if not 1 <= position <= end <= self.length:
            raise CostModelError(
                f"ninbar positions out of range: {position}..{end} in 1..{self.length}"
            )
        cached = self._ninbar_cache.get((position, class_name, end))
        if cached is not None:
            return cached
        value = self.nin(position, class_name)
        for level in range(position + 1, end + 1):
            value *= self.mean_fanout(level)
        cap = self.distinct_union(end)
        value = min(value, cap) if cap > 0 else value
        self._ninbar_cache[(position, class_name, end)] = value
        return value

    # ------------------------------------------------------------------
    # fan-in chains (the noid formulas of Section 3.1)
    # ------------------------------------------------------------------
    def probe_keys(self, position: int, end: int, probes: float = 1.0) -> float:
        """Number of key values looked up in a level-``position`` index.

        ``noid-sigma_{position+1}``: starting from ``probes`` equality
        values against ``A_end``, each level multiplies by the hierarchy
        fan-in ``Σ_j k``. Clamped at the population of the level above
        (keys are oids of ``C_{position+1}`` objects) when clamping is on.
        """
        cached = self._probe_keys_cache.get((position, end, probes))
        if cached is not None:
            return cached
        clamp = self.config.clamp_cardinalities
        value = probes
        for level in range(end, position, -1):
            value *= self.sum_k(level)
            if clamp:
                cap = self.total_objects(level)
                if value > cap:
                    value = cap
        self._probe_keys_cache[(position, end, probes)] = value
        return value

    def noid(
        self, position: int, class_name: str, end: int, probes: float = 1.0
    ) -> float:
        """``noid_{l,x}``: oids of ``C_{l,x}`` objects satisfying the predicate."""
        value = self.k(position, class_name) * self.probe_keys(position, end, probes)
        if self.config.clamp_cardinalities:
            value = min(value, self.n(position, class_name))
        return value

    def noid_hierarchy(self, position: int, end: int, probes: float = 1.0) -> float:
        """``noid-sigma``: oids across the hierarchy at ``position``."""
        return sum(
            self.noid(position, name, end, probes)
            for name in self.members(position)
        )

    # ------------------------------------------------------------------
    # occupancy estimates for NIX auxiliary records
    # ------------------------------------------------------------------
    def occupied_members(self, position: int, values: float) -> float:
        """``nar``-style count: hierarchy members holding >= 1 of ``values``.

        The paper postulates a distribution ``(nin_{l+1,1}, ...)`` of the
        values over the hierarchy and counts the non-zero entries. We use
        the expected occupancy when ``values`` items land on members with
        probability proportional to their populations.
        """
        if values <= 0:
            return 0.0
        cached = self._occupied_cache.get((position, values))
        if cached is not None:
            return cached
        total = self.total_objects(position)
        if total <= 0:
            return 0.0
        occupied = 0.0
        for name in self.members(position):
            share = self.stats_of(name).objects / total
            if share > 0:
                occupied += 1.0 - (1.0 - share) ** values
        occupied = min(occupied, float(self.nc(position)), values)
        self._occupied_cache[(position, values)] = occupied
        return occupied

    # ------------------------------------------------------------------
    # shared evaluation caches (the fast Cost_Matrix evaluation layer)
    # ------------------------------------------------------------------
    def cached_shape(self, key: tuple, builder):
        """A cross-row index-shape cache.

        Every cost model's shapes are pure functions of these statistics,
        yet matrix construction instantiates a fresh model per subpath ×
        organization. ``key`` identifies the shape (e.g. ``("mx", l, C)``);
        ``builder`` is invoked only on a miss.
        """
        shape = self._shape_cache.get(key)
        if shape is None:
            shape = builder()
            self._shape_cache[key] = shape
        return shape

    def _check_member(self, position: int, class_name: str) -> None:
        if class_name not in self.members(position):
            raise CostModelError(
                f"class {class_name!r} is not in the hierarchy at position "
                f"{position} of {self.path}"
            )

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def subpath_positions(self, start: int, end: int) -> range:
        """The positions covered by subpath ``S_{start,end}``."""
        if not 1 <= start <= end <= self.length:
            raise CostModelError(
                f"subpath {start}..{end} out of range for {self.path}"
            )
        return range(start, end + 1)

    def describe(self) -> str:
        """Multi-line summary of the statistics (Figure 7 style)."""
        lines = [f"path: {self.path}"]
        for position in range(1, self.length + 1):
            for name in self.members(position):
                stats = self.stats_of(name)
                lines.append(
                    f"  [{position}] {name}: n={stats.objects:g} "
                    f"d={stats.distinct:g} nin={stats.fanout:g} k={stats.k:g}"
                )
        return "\n".join(lines)
