"""Shared machinery for the per-organization subpath cost models.

Every organization model is instantiated for one subpath ``S_{start,end}``
of a full path and answers four questions (all in expected page accesses):

* ``query_cost(l, x, probes)`` — searching cost of the objects of class
  ``C_{l,x}`` satisfying ``probes`` equality values against the subpath's
  ending attribute (``CR_X`` of Section 3.1, generalized from one probe to
  the oid fan-in a following subpath feeds in);
* ``insert_cost(l, x)`` / ``delete_cost(l, x)`` — maintenance cost when an
  object of ``C_{l,x}`` is inserted/deleted (``CM_X``);
* ``cmd_cost()`` — the Section 4 cross-subpath cost ``CMD_X(A_t)``: the
  deletion of one object of the class *following* the subpath forces the
  removal of the record keyed by its oid from this subpath's index.

Models also expose ``emitted_oids(probes)`` — the expected number of
starting-class-hierarchy oids a query hands to the preceding subpath —
which powers the exact "coupled" configuration evaluator (an extension;
the paper's matrix uses one probe per subpath, see
:mod:`repro.costmodel.subpath`).
"""

from __future__ import annotations

import abc

from repro.costmodel.btree_shape import IndexShape, build_shape
from repro.costmodel.params import PathStatistics
from repro.errors import CostModelError
from repro.organizations import IndexOrganization


class SubpathCostModel(abc.ABC):
    """Abstract base: analytic costs of one organization on one subpath."""

    organization: IndexOrganization

    def __init__(self, stats: PathStatistics, start: int, end: int) -> None:
        if not 1 <= start <= end <= stats.length:
            raise CostModelError(
                f"subpath {start}..{end} out of range for {stats.path}"
            )
        self.stats = stats
        self.start = start
        self.end = end
        self.config = stats.config
        self.sizes = stats.config.sizes

    # ------------------------------------------------------------------
    # abstract interface
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def query_cost(self, position: int, class_name: str, probes: float = 1.0) -> float:
        """``CR_X(C_{l,x})``: searching cost for one class of the subpath."""

    @abc.abstractmethod
    def hierarchy_query_cost(self, position: int, probes: float = 1.0) -> float:
        """``CR_X(C-hat_{l,x})``: searching cost for a class plus subclasses."""

    def range_query_cost(
        self,
        position: int,
        class_name: str,
        selectivity: float,
        probes: float = 1.0,
    ) -> float:
        """Searching cost of a range predicate on the ending attribute.

        ``selectivity`` is the fraction of distinct ending values covered.
        The default treats the range as the equivalent number of equality
        probes; organizations with chained ending structures override this
        with a contiguous leaf walk.
        """
        equivalent = max(
            1.0, selectivity * self.stats.distinct_union(self.end) * probes
        )
        return self.query_cost(position, class_name, equivalent)

    @abc.abstractmethod
    def insert_cost(self, position: int, class_name: str) -> float:
        """``CM_X`` on insertion of an object of ``C_{l,x}``."""

    @abc.abstractmethod
    def delete_cost(self, position: int, class_name: str) -> float:
        """``CM_X`` on deletion of an object of ``C_{l,x}``."""

    @abc.abstractmethod
    def cmd_cost(self) -> float:
        """``CMD_X(A_t)``: per-deletion cost charged by the following class."""

    @abc.abstractmethod
    def storage_pages(self) -> float:
        """Approximate pages occupied by the subpath's index structures."""

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def emitted_oids(self, probes: float = 1.0) -> float:
        """Oids of the starting hierarchy produced by a subpath lookup."""
        return self.stats.noid_hierarchy(self.start, self.end, probes)

    def positions(self) -> range:
        """The 1-based positions covered by the subpath."""
        return range(self.start, self.end + 1)

    def _check_covered(self, position: int, class_name: str) -> None:
        if not self.start <= position <= self.end:
            raise CostModelError(
                f"position {position} outside subpath {self.start}..{self.end}"
            )
        if class_name not in self.stats.members(position):
            raise CostModelError(
                f"class {class_name!r} not in hierarchy at position {position}"
            )

    # -- record/key geometry -------------------------------------------
    def key_size_at(self, position: int) -> int:
        """Key length of an index on ``A_position``.

        Atomic ending attributes use the atomic key length; every other
        attribute's values are oids of the next class.
        """
        attribute = self.stats.path.attribute_def_at(position)
        return self.sizes.key_size(atomic=attribute.is_atomic)

    def entry_size_at(self, position: int) -> int:
        """Size of one oid entry in a record of an index on ``A_position``.

        Multi-valued attributes store ``(oid, numchild)`` pairs in NIX
        records; plain oid lists elsewhere. MX/MIX records always store
        plain oids, so they use :attr:`SizeModel.oid_size` directly.
        """
        return self.sizes.oid_size

    # -- shape builders -------------------------------------------------
    def mx_shape(self, position: int, class_name: str) -> IndexShape:
        """Shape of the MX (simple) index on ``A_position`` of one class.

        The shape depends only on the statistics, never on the subpath
        bounds, so it is shared across all matrix rows via the statistics'
        shape cache.
        """
        return self.stats.cached_shape(
            ("mx", position, class_name),
            lambda: self._build_mx_shape(position, class_name),
        )

    def _build_mx_shape(self, position: int, class_name: str) -> IndexShape:
        stats = self.stats
        record_length = (
            self.sizes.record_header_size
            + self.key_size_at(position)
            + stats.k(position, class_name) * self.sizes.oid_size
        )
        return build_shape(
            record_count=stats.d(position, class_name),
            record_length=record_length,
            key_size=self.key_size_at(position),
            sizes=self.sizes,
        )

    def mix_shape(self, position: int) -> IndexShape:
        """Shape of the MIX (inherited) index covering a whole hierarchy.

        Subpath-independent like :meth:`mx_shape`, hence cached across
        rows.
        """
        return self.stats.cached_shape(
            ("mix", position), lambda: self._build_mix_shape(position)
        )

    def _build_mix_shape(self, position: int) -> IndexShape:
        stats = self.stats
        record_length = (
            self.sizes.record_header_size
            + self.key_size_at(position)
            + stats.nc(position) * self.sizes.class_directory_entry_size
            + stats.sum_k(position) * self.sizes.oid_size
        )
        return build_shape(
            record_count=stats.distinct_union(position),
            record_length=record_length,
            key_size=self.key_size_at(position),
            sizes=self.sizes,
        )
