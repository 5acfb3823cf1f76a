"""Multi-path configuration selection — the Section 6 extension.

The paper's further-research list opens with "the extension of the
algorithm such that it may generate index configurations for n paths",
noting that "a path may be a subpath of another path or paths may overlap
each other".

This module implements the extension for the practically relevant case:
a set of paths over one schema, each with its own statistics and workload.
Two paths that select the *identical* physical subpath (the same sequence
of ``(class, attribute)`` steps) with the same organization share one
physical index, so its maintenance cost (inserts, deletes, CMD) is paid
once — and its storage pages are occupied once — rather than per path.
Query costs are always per path.

Selection is one pipeline, with one implementation per stage:

1. **Candidate generation per path** (:func:`_candidates`). Each path
   contributes its locally cheapest configurations, with the best
   ``per_row_organizations`` organizations per subpath so sharing can win
   even when it is not locally optimal. One rule covers the whole fleet,
   with or without a budget: every path is enumerated exactly only when
   the joint stage will walk the cross product exhaustively as well (no
   ``beam_width``, every path's space within
   :data:`EXACT_CANDIDATE_LIMIT`, their product within
   :data:`_EXACT_LIMIT`). Otherwise every path gets the k-best beam sweep
   :func:`repro.search.partitions.top_configurations` (``beam_width``
   candidates per path, exact over the space it covers), which keeps
   many-long-paths joint selection out of the ``2^(n-1)`` regime
   entirely.
2. **Joint search across paths.** A cross product of at most
   :data:`_EXACT_LIMIT` combinations is walked exhaustively
   (:func:`_exhaustive`); a larger one is searched by greedy coordinate
   descent — hedged with :data:`DEFAULT_RESTARTS` seeded randomized
   restarts against its local minima — with shared physical indexes
   charged once. The descent ranks its moves by per-path deltas: one
   numpy pass of :class:`_SwapPricer` over interned index keys scores
   every single-path swap of a path as a joint cost change, and the
   state changes once per applied move. Results, and the comparison
   between restarts, are priced by :func:`_joint_cost`.
3. **Storage budget (optional).** ``optimize_multipath(budget_pages=...)``
   constrains the union of selected physical indexes — priced per
   :class:`SharedIndexKey` from the cost-model storage estimates, which
   derive from :class:`repro.storage.sizes.SizeModel` — to a page
   budget. The exhaustive walk keeps the cheapest selection that fits
   beside the cheapest outright. Beyond it, a greedy marginal-benefit
   sweep (best cost-reduction per added page first) starts from stage
   2's selection, and its recorded trajectory is filtered by the budget,
   so tighter budgets always cost at least as much as looser ones. The
   sweep ranks its moves from the same per-path cost and storage deltas;
   each recorded selection is priced once by :func:`_joint_cost` and
   :func:`_joint_storage`, so the budget filter and every reported number
   come from them. The budget-free path remains the default
   (``budget_pages=None``).

For what-if loops, :func:`optimize_multipath` also accepts one
:class:`~repro.whatif.AdvisorSession` per path (``sessions=``): matrices
come from the sessions' incremental recomputes, and each path's candidate
set — including its per-:class:`SharedIndexKey` maintenance and storage
pricing — is cached on the session and regenerated only when that path's
dirty version moved.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

import numpy as np

from repro import kernel
from repro.core.configuration import IndexConfiguration, IndexedSubpath
from repro.core.cost_matrix import CostMatrix
from repro.costmodel.params import PathStatistics
from repro.errors import OptimizerError
from repro.kernel.arrays import fold_segments
from repro.kernel.evaluate import adopt_suffix_units
from repro.obs.recorder import NULL_RECORDER, resolve_recorder
from repro.organizations import CONFIGURABLE_ORGANIZATIONS, IndexOrganization
from repro.search.partitions import (
    configuration_count,
    enumerate_partitions,
    top_configurations,
)
from repro.workload.load import LoadDistribution

#: Above this many cross-path combinations the joint search switches to
#: coordinate descent, and no path's candidates are enumerated.
_EXACT_LIMIT = 200_000

#: Largest per-path candidate space (``r·(1+r)^(n-1)``) that is still
#: enumerated exactly when ``beam_width`` is not forced (and the fleet's
#: product of spaces stays within :data:`_EXACT_LIMIT`). Length 10 with
#: two organizations per row is ~39k candidates; length 11 crosses this
#: limit and switches the fleet to the beam generator.
EXACT_CANDIDATE_LIMIT = 50_000

#: Candidates kept per path by the beam generator when ``beam_width`` is
#: not given. Wide enough that coordinate descent has realistic sharing
#: alternatives to move through, small enough that 8 × length-40 joint
#: selection stays in the seconds range.
DEFAULT_BEAM_WIDTH = 16

#: Seeded randomized restarts of the coordinate descent when the joint
#: stage runs beyond :data:`_EXACT_LIMIT`. The descent from the
#: independent optimum can sit in a local minimum of the sharing
#: landscape; a few random starting selections hedge against it at a cost
#: linear in the candidate-set sizes.
DEFAULT_RESTARTS = 4


@dataclass(frozen=True)
class PathWorkload:
    """One path's inputs: statistics plus load distribution."""

    stats: PathStatistics
    load: LoadDistribution


def _suffix_offset(longer: PathStatistics, shorter: PathStatistics) -> int | None:
    """Where ``shorter`` sits in ``longer`` as a suffix, else ``None``.

    A suffix ends at ``longer``'s last attribute: its position ``p`` is
    ``longer``'s ``p + k``, ``k`` the length difference (0 for a
    duplicated path). It qualifies when the cost-model configurations are
    equal and, at every position, so are the hierarchy (root first: the
    path's class), the attribute definition and every hierarchy member's
    :class:`~repro.costmodel.params.ClassStats` — every input of the
    kernel's statistics-only units.
    """
    offset = longer.length - shorter.length
    if offset < 0 or shorter.config != longer.config:
        return None
    for position in range(1, shorter.length + 1):
        shifted = position + offset
        members = shorter.members(position)
        if (
            members != longer.members(shifted)
            or shorter.path.attribute_def_at(position)
            != longer.path.attribute_def_at(shifted)
            or any(
                shorter.stats_of(member) != longer.stats_of(member)
                for member in members
            )
        ):
            return None
    return offset


def _suffix_families(stats: list[PathStatistics]) -> list[list[tuple[int, int]]]:
    """The paths' suffix families, as ``(path index, offset)`` lists.

    Paths are placed longest first: each joins the first family whose
    longest path it is a suffix of, or founds its own, so a family lists
    its longest path first (offset 0). Families come in the input order
    of their first path, so a fleet without suffixes keeps its order.
    """
    families: list[list[tuple[int, int]]] = []
    for index in sorted(range(len(stats)), key=lambda i: -stats[i].length):
        for family in families:
            offset = _suffix_offset(stats[family[0][0]], stats[index])
            if offset is not None:
                family.append((index, offset))
                break
        else:
            families.append([(index, 0)])
    return sorted(
        families, key=lambda family: min(index for index, _ in family)
    )


def build_fleet(
    workloads: list[PathWorkload],
    build,
    range_selectivity: float | None = None,
    recorder=NULL_RECORDER,
) -> list:
    """``build(workload)`` for every path, pricing shared suffixes once.

    Section 6's "a path may be a subpath of another path": row ``(s, e)``
    of a suffix at offset ``k`` covers the classes, and the probe chain
    to the path's end, of its family's longest path's row ``(s + k, e +
    k)``, so the two rows' statistics-only kernel units are equal; only
    the loads differ. Each family's longest path is built first. Before
    each suffix is built, its lowering adopts the longest path's units
    (:func:`repro.kernel.evaluate.adopt_suffix_units`), so its build
    folds only its own loads into bit-identical entries. Units are
    adopted only from a longest path priced in this process, that is a
    serial build. ``recorder`` counts the adopted (row, organization)
    unit sets in ``kernel.units_adopted``. Returns the built objects in
    input order.
    """
    built: list = [None] * len(workloads)
    for (longest, _), *suffixes in _suffix_families(
        [workload.stats for workload in workloads]
    ):
        built[longest] = build(workloads[longest])
        source = kernel.cached_lowering(
            workloads[longest].stats, workloads[longest].load, range_selectivity
        )
        for index, offset in suffixes:
            stats, load = workloads[index].stats, workloads[index].load
            if source is not None:
                recorder.counter("kernel.units_adopted").add(
                    adopt_suffix_units(
                        source,
                        offset,
                        lambda: kernel.lower(
                            stats, load, range_selectivity, recorder
                        ),
                    )
                )
            built[index] = build(workloads[index])
    return built


def validate_selection_options(
    per_row_organizations: int = 2,
    beam_width: int | None = None,
    budget_pages: float | None = None,
    restarts: int | None = None,
) -> None:
    """Reject invalid selection options with an :class:`OptimizerError`.

    Shared by :func:`optimize_multipath` and the CLI, which calls it
    *before* computing the cost matrices so bad flags fail fast (the
    same fail-before-the-expensive-run convention as ``advise``'s
    strategy resolution). ``budget_pages`` must be a non-negative real
    number — NaN is rejected explicitly because every ``storage <=
    budget`` comparison against it is silently false.
    """
    if per_row_organizations < 1:
        raise OptimizerError(
            f"organizations per block must be positive, got "
            f"{per_row_organizations}"
        )
    if beam_width is not None and beam_width < 1:
        raise OptimizerError(f"beam width must be positive, got {beam_width}")
    if budget_pages is not None and not budget_pages >= 0:
        raise OptimizerError(
            f"storage budget must be a non-negative number of pages, got "
            f"{budget_pages}"
        )
    if restarts is not None and restarts < 0:
        raise OptimizerError(
            f"restarts must be non-negative, got {restarts}"
        )


@dataclass(frozen=True)
class SharedIndexKey:
    """Identity of a physical index: the steps it covers plus organization."""

    steps: tuple[tuple[str, str], ...]
    organization: IndexOrganization


@dataclass
class MultiPathResult:
    """Joint configuration selection outcome.

    ``exact`` is ``True`` only when both stages were exhaustive: the
    candidate sets covered each path's full (organization-limited) space
    *and* the joint cross product was searched completely.
    ``storage_pages`` prices the union of selected physical indexes
    (shared indexes once); ``budget_pages`` echoes the constraint when
    one was given, with ``unconstrained_cost`` the joint cost the same
    candidate sets reach without it.
    """

    configurations: list[IndexConfiguration]
    total_cost: float
    shared_savings: float
    independent_cost: float
    exact: bool
    storage_pages: float = 0.0
    budget_pages: float | None = None
    unconstrained_cost: float | None = None
    #: Human-readable records of every deadline fallback taken while
    #: producing this result (empty when selection ran at full quality).
    degradations: tuple[str, ...] = ()

    def render(self, workloads: list[PathWorkload]) -> str:
        """Readable multi-path report."""
        lines = []
        for workload, configuration in zip(workloads, self.configurations):
            lines.append(
                f"  {workload.stats.path}: {configuration.render(workload.stats.path)}"
            )
        lines.append(
            f"joint cost {self.total_cost:.2f} "
            f"(independent {self.independent_cost:.2f}, "
            f"shared savings {self.shared_savings:.2f}, "
            f"{'exact' if self.exact else 'beam/greedy'} search)"
        )
        if self.budget_pages is not None:
            extra = (
                f" (+{self.total_cost - self.unconstrained_cost:.2f} vs "
                f"unconstrained)"
                if self.unconstrained_cost is not None
                else ""
            )
            # Translate pages back to bytes with the fleet's size model so
            # the budget means something to an administrator.
            sizes = workloads[0].stats.config.sizes
            lines.append(
                f"storage {sizes.describe_pages(self.storage_pages)} of "
                f"{self.budget_pages:.0f} budget pages{extra}"
            )
        return "\n".join(lines)


def _subpath_key(
    stats: PathStatistics, start: int, end: int, organization: IndexOrganization
) -> SharedIndexKey:
    path = stats.path
    steps = tuple(
        (path.class_at(position), path.attribute_at(position))
        for position in range(start, end + 1)
    )
    return SharedIndexKey(steps=steps, organization=organization)


@dataclass(frozen=True)
class _Candidate:
    """One candidate configuration of one path, with cost and storage split."""

    configuration: IndexConfiguration
    query_cost: float
    maintenance: dict[SharedIndexKey, float]
    storage: dict[SharedIndexKey, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        return self.query_cost + sum(self.maintenance.values())


def _price_candidates(
    stats: PathStatistics,
    matrix: CostMatrix,
    parts_list: list[tuple[IndexedSubpath, ...]],
) -> list[_Candidate]:
    """Price a whole candidate set into query/maintenance/storage splits.

    Every distinct ``(start, end, organization)`` triple across the set is
    looked up and :class:`SharedIndexKey`-built exactly once, and the
    per-candidate query sums run through one
    :func:`repro.kernel.arrays.fold_segments` call whose segmented fold
    replays a left-to-right ``+=`` over each candidate's blocks — so every
    price is bit-identical to summing the matrix breakdowns one candidate
    at a time.
    """
    # One breakdown lookup and one key construction per distinct triple
    # (candidate sets repeat each block's ranked organizations across
    # hundreds of partitions).
    triples: dict[tuple[int, int, IndexOrganization], tuple] = {}
    for parts in parts_list:
        for part in parts:
            triple = (part.start, part.end, part.organization)
            if triple in triples:
                continue
            breakdown = matrix.breakdown(*triple)
            if breakdown is None:
                raise OptimizerError(
                    "multi-path selection requires a computed cost matrix"
                )
            triples[triple] = (
                breakdown.query,
                ((0.0 + breakdown.insert) + breakdown.delete)
                + breakdown.cmd,
                breakdown.storage_pages,
                _subpath_key(stats, *triple),
            )

    counts = [len(parts) for parts in parts_list]
    entry_count = sum(counts)
    values = np.empty(entry_count)
    segment = np.empty(entry_count, dtype=np.int64)
    rank = np.empty(entry_count, dtype=np.int64)
    position = 0
    for index, parts in enumerate(parts_list):
        for offset, part in enumerate(parts):
            values[position] = triples[
                (part.start, part.end, part.organization)
            ][0]
            segment[position] = index
            rank[position] = offset
            position += 1
    query_costs = fold_segments(
        values, segment, rank, len(parts_list), max(counts, default=0)
    )

    candidates: list[_Candidate] = []
    for index, parts in enumerate(parts_list):
        maintenance: dict[SharedIndexKey, float] = {}
        storage: dict[SharedIndexKey, float] = {}
        for part in parts:
            _query, upkeep, pages, key = triples[
                (part.start, part.end, part.organization)
            ]
            # Blocks of one candidate partition the path, so each key
            # appears once and plain assignment needs no accumulation.
            maintenance[key] = upkeep
            storage[key] = pages
        candidates.append(
            _Candidate(
                configuration=IndexConfiguration(tuple(parts)),
                query_cost=float(query_costs[index]),
                maintenance=maintenance,
                storage=storage,
            )
        )
    return candidates


def _candidates(
    workload: PathWorkload, matrix: CostMatrix, descriptor: tuple
) -> list[_Candidate]:
    """One path's candidate set for a generation descriptor.

    ``descriptor`` is ``(organizations_per_block, width, budgeted)``. A
    ``width`` of ``None`` enumerates every partition with each block's
    best ``organizations_per_block`` organizations. The ranking is
    tie-tolerant (the Min_Cost tolerance): near-tie organizations rank by
    column order, so the candidate pool is stable across platforms and
    cost-model reformulations. An integer ``width`` keeps the k-best
    sweep's ``width`` locally cheapest configurations; ``budgeted`` then
    appends, in first-seen order, those of the ``width`` smallest by
    storage pages that the cost sweep did not already hold, so tight
    budgets keep feasible candidates. Assignments are deduplicated before
    pricing, so the two sweeps' overlap is never priced twice.
    """
    organizations, width, budgeted = descriptor
    if width is None:
        assignments: list[tuple[IndexedSubpath, ...]] = []
        for blocks in enumerate_partitions(matrix.length):
            options = [
                [
                    IndexedSubpath(start, end, organization)
                    for organization in matrix.ranked_organizations(
                        start, end, limit=organizations
                    )
                ]
                for start, end in blocks
            ]
            assignments.extend(itertools.product(*options))
        return _price_candidates(workload.stats, matrix, assignments)
    assignments = [
        parts
        for _cost, parts in top_configurations(
            matrix, count=width, per_row_organizations=organizations
        )
    ]
    if budgeted:
        seen = set(assignments)
        for _pages, parts in top_configurations(
            matrix._storage_matrix(),
            count=width,
            per_row_organizations=organizations,
        ):
            if parts not in seen:
                seen.add(parts)
                assignments.append(parts)
    return _price_candidates(workload.stats, matrix, assignments)


def _candidate_descriptors(
    matrices: list[CostMatrix],
    per_row_organizations: int,
    beam_width: int | None,
    budget_pages: float | None,
) -> tuple[list[tuple], bool]:
    """Per-path candidate-generation descriptors plus the exactness flag.

    A descriptor ``(organizations_per_block, width, budgeted)`` fully
    determines what :func:`_candidates` produces for a path, which makes
    it the cache key for session-carried candidate sets: identical
    descriptor + unchanged matrix (session version) ⇒ identical
    candidates. ``budgeted`` is set only on beams, the one place it
    changes the candidates.

    One rule serves both regimes: every path is enumerated only when no
    ``beam_width`` is given, every path's space is within
    :data:`EXACT_CANDIDATE_LIMIT` and the product of the spaces is within
    :data:`_EXACT_LIMIT` — that is, only when the joint stage walks the
    cross product exhaustively too, because tens of thousands of exact
    candidates per path handed to a greedy search multiply every swap
    scan for no exactness in return. Otherwise every path gets the beam.
    """
    budgeted = budget_pages is not None
    # A storage budget couples the per-block organization choices (the
    # affordable option may be any organization, NONE included), so
    # budgeted generation ranks over every organization in the matrix —
    # the same widening optimize_with_budget applies — instead of the
    # cost-ranked best per_row_organizations.
    per_block = [
        len(matrix.organizations) if budgeted else per_row_organizations
        for matrix in matrices
    ]
    spaces = [
        configuration_count(matrix.length, organizations)
        for matrix, organizations in zip(matrices, per_block)
    ]
    if (
        beam_width is None
        and max(spaces) <= EXACT_CANDIDATE_LIMIT
        and math.prod(spaces) <= _EXACT_LIMIT
    ):
        return [(organizations, None, False) for organizations in per_block], True
    width = beam_width if beam_width is not None else DEFAULT_BEAM_WIDTH
    return (
        [(organizations, width, budgeted) for organizations in per_block],
        all(width >= space for space in spaces),
    )


def _joint_cost(selection: tuple[_Candidate, ...]) -> tuple[float, float]:
    """Total joint cost and the sharing savings of one selection."""
    query = sum(candidate.query_cost for candidate in selection)
    merged: dict[SharedIndexKey, float] = {}
    raw = 0.0
    for candidate in selection:
        for key, cost in candidate.maintenance.items():
            raw += cost
            # A shared physical index is maintained once; the paths may
            # estimate its maintenance slightly differently (different
            # ending attributes), so charge the most expensive estimate.
            merged[key] = max(merged.get(key, 0.0), cost)
    maintenance = sum(merged.values())
    return query + maintenance, raw - maintenance


def _joint_storage(selection: tuple[_Candidate, ...]) -> float:
    """Pages of the union of physical indexes (shared indexes once)."""
    merged: dict[SharedIndexKey, float] = {}
    for candidate in selection:
        for key, pages in candidate.storage.items():
            merged[key] = max(merged.get(key, 0.0), pages)
    return sum(merged.values())


class _SwapPricer:
    """Every single-path swap of one path, priced as a cost and storage delta.

    Built once per joint stage from that stage's candidate sets. The ids
    live here, not on the candidates, because sessions cache candidate
    sets across calls. Every :class:`SharedIndexKey` is interned to an
    integer; each path keeps flat arrays over all its candidates' blocks
    (key id, maintenance and pages, owning candidate) and one query-cost
    vector. Value arrays stack maintenance and pages as two planes. The
    selection's per-key values sit in one dense row per path, and per key
    the largest and second-largest maintenance and pages with the path
    that holds the largest, so the maximum over every *other* path is
    one ``np.where``. An absent key reads 0 — the value
    :func:`_joint_cost` starts its maxima from, and a floor that
    non-negative cost-model prices never go below.

    :meth:`deltas` scores a path's swaps in one pass; only :meth:`reset`
    and :meth:`move` change the state. ``priced`` counts the swaps scored
    and ``moves`` the swaps applied. Deltas rank moves and never price
    results: they sum in another order than :func:`_joint_cost` (whose
    ``sum`` is compensated on Python 3.12+), so every reported number
    still comes from :func:`_joint_cost` and :func:`_joint_storage`.
    """

    def __init__(self, candidate_sets: list[list[_Candidate]]) -> None:
        ids: dict[SharedIndexKey, int] = {}
        self._queries: list[np.ndarray] = []
        self._blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._starts: list[list[int]] = []
        for candidates in candidate_sets:
            keys: list[int] = []
            upkeep: list[float] = []
            pages: list[float] = []
            owners: list[int] = []
            starts = [0]
            for index, candidate in enumerate(candidates):
                for key, cost in candidate.maintenance.items():
                    keys.append(ids.setdefault(key, len(ids)))
                    upkeep.append(cost)
                    pages.append(candidate.storage.get(key, 0.0))
                    owners.append(index)
                starts.append(len(keys))
            self._queries.append(
                np.array([candidate.query_cost for candidate in candidates])
            )
            self._blocks.append(
                (
                    np.array(keys, dtype=np.intp),
                    np.array((upkeep, pages), dtype=float),
                    np.array(owners, dtype=np.intp),
                )
            )
            self._starts.append(starts)
        self._rows = np.zeros((2, len(candidate_sets), len(ids)))
        self._first = np.zeros((2, len(ids)))
        self._second = np.zeros((2, len(ids)))
        self._holder = np.zeros((2, len(ids)), dtype=np.intp)
        self.choice: list[int] = []
        self.priced = 0
        self.moves = 0

    def reset(self, choice: list[int]) -> None:
        """Make ``choice`` (one candidate index per path) the selection."""
        self.choice = list(choice)
        self._rows[...] = 0.0
        for path, candidate in enumerate(self.choice):
            self._place(path, candidate)
        self._refresh(np.arange(self._rows.shape[2]))

    def move(self, path: int, candidate: int) -> None:
        """Apply one swap: ``path`` now selects ``candidate``."""
        keys = self._blocks[path][0]
        old = keys[self._part(path, self.choice[path])]
        self._rows[:, path, old] = 0.0
        self.choice[path] = candidate
        self._refresh(np.concatenate((old, self._place(path, candidate))))
        self.moves += 1

    def deltas(self, path: int) -> tuple[np.ndarray, np.ndarray]:
        """Joint cost and storage change of swapping ``path`` to each candidate.

        The current candidate's entries are exactly 0.
        """
        keys, values, owners = self._blocks[path]
        queries = self._queries[path]
        excluded = np.where(
            self._holder[:, keys] == path,
            self._second[:, keys],
            self._first[:, keys],
        )
        extra = np.maximum(values - excluded, 0.0)
        upkeep = np.bincount(owners, extra[0], minlength=len(queries))
        pages = np.bincount(owners, extra[1], minlength=len(queries))
        current = self.choice[path]
        self.priced += len(queries) - 1
        return (
            (queries - queries[current]) + (upkeep - upkeep[current]),
            pages - pages[current],
        )

    def _part(self, path: int, candidate: int) -> slice:
        """Where one candidate's blocks sit in its path's flat arrays."""
        starts = self._starts[path]
        return slice(starts[candidate], starts[candidate + 1])

    def _place(self, path: int, candidate: int) -> np.ndarray:
        """Write one candidate's blocks into its path's row; their key ids."""
        keys, values, _ = self._blocks[path]
        part = self._part(path, candidate)
        self._rows[:, path, keys[part]] = values[:, part]
        return keys[part]

    def _refresh(self, columns: np.ndarray) -> None:
        """Recompute the per-key top two over the selection's rows."""
        block = self._rows[:, :, columns]
        holder = block.argmax(axis=1)[:, None]
        self._holder[:, columns] = holder[:, 0]
        self._first[:, columns] = np.take_along_axis(block, holder, axis=1)[:, 0]
        np.put_along_axis(block, holder, 0.0, axis=1)
        self._second[:, columns] = block.max(axis=1)


def _chosen(
    candidate_sets: list[list[_Candidate]], choice: list[int]
) -> list[_Candidate]:
    """The candidates a per-path index selection names."""
    return [candidates[index] for candidates, index in zip(candidate_sets, choice)]


def _descend(pricer: _SwapPricer, choice: list[int]) -> list[int]:
    """Greedy coordinate descent: re-optimize one path at a time until stable.

    Each path's scan walks its candidates in order and takes one whenever
    its cost delta beats the running best by more than 1e-12 (the
    first-improvement chain); the scan's last pick is applied as one move.
    """
    pricer.reset(choice)
    improved = True
    while improved:
        improved = False
        for path in range(len(choice)):
            cost, _ = pricer.deltas(path)
            best, running = None, 0.0
            # Only a delta below -1e-12 can start the chain.
            for candidate in np.flatnonzero(cost < -1e-12).tolist():
                if cost[candidate] < running - 1e-12:
                    best, running = candidate, cost[candidate]
            if best is not None:
                pricer.move(path, best)
                improved = True
    return list(pricer.choice)


def _exhaustive(
    candidate_sets: list[list[_Candidate]], budget_pages: float | None
) -> tuple[list[_Candidate], list[_Candidate]]:
    """One walk over the whole cross product, tracking two optima.

    Returns ``(best_fitting, best_overall)``: the cheapest selection whose
    physical-index union fits the budget, and the cheapest outright (for
    the ``unconstrained_cost`` report). Every selection fits a ``None``
    budget, so the two are then the same. Selections come in
    ``itertools.product`` order and only a strictly cheaper one replaces
    the incumbent, so ties keep the earliest.
    """
    best_cost = overall_cost = float("inf")
    best: tuple[_Candidate, ...] | None = None
    overall: tuple[_Candidate, ...] | None = None
    for selection in itertools.product(*candidate_sets):
        cost, _ = _joint_cost(selection)
        if cost < overall_cost:
            overall_cost, overall = cost, selection
        if cost < best_cost and (
            budget_pages is None or _joint_storage(selection) <= budget_pages
        ):
            best_cost, best = cost, selection
    if best is None:
        raise OptimizerError(
            f"no joint configuration fits within {budget_pages} pages; "
            "consider including the NONE organization"
        )
    return list(best), list(overall)


def _select_unconstrained(
    candidate_sets: list[list[_Candidate]],
    restarts: int,
    seed: int,
    pricer: _SwapPricer,
) -> list[_Candidate]:
    """Seeded multi-start coordinate descent over a large cross product.

    One descent from the independent optimum, hedged by ``restarts`` extra
    descents from selections drawn uniformly at random per path (seeded:
    the same ``seed`` always explores the same restarts, so results are
    deterministic). ``pricer`` ranks the descents' swaps. The best of all
    descents, compared by :func:`_joint_cost`, wins; ties keep the
    independent-optimum descent.
    """
    # Start from each path's independent best and descend.
    start = [
        min(range(len(candidates)), key=lambda index: candidates[index].total)
        for candidates in candidate_sets
    ]
    best_selection = _chosen(candidate_sets, _descend(pricer, start))
    best_cost, _ = _joint_cost(tuple(best_selection))
    rng = random.Random(seed)
    for _ in range(restarts):
        start = [
            rng.choice(range(len(candidates))) for candidates in candidate_sets
        ]
        restarted = _chosen(candidate_sets, _descend(pricer, start))
        cost, _ = _joint_cost(tuple(restarted))
        if cost < best_cost - 1e-12:
            best_cost = cost
            best_selection = restarted
    return best_selection


def _shrink_rank(cost: np.ndarray, storage: np.ndarray):
    """Storage-descent rank: union shrink first, then the cost reduction."""
    reduction = -storage
    return reduction > 1e-12, reduction, -cost


def _benefit_rank(cost: np.ndarray, storage: np.ndarray):
    """Marginal-benefit rank: cost reduction per added page, then reduction.

    A reduction that adds no pages ranks at infinity, above every ratio.
    """
    reduction = -cost
    ratio = np.divide(
        reduction, storage, out=np.full(len(cost), np.inf), where=storage > 0
    )
    return reduction > 1e-12, ratio, reduction


def _best_move(pricer: _SwapPricer, rank) -> tuple[int, int] | None:
    """The ``(path, candidate)`` swap with the lexicographically largest rank.

    ``rank(cost_deltas, storage_deltas)`` returns a validity mask and the
    primary and secondary rank vectors of one path's swaps. Ties go to
    the earliest path, then the earliest candidate; the current candidate
    is never a move.
    """
    best: tuple[tuple[float, float], int, int] | None = None
    for path, current in enumerate(pricer.choice):
        valid, primary, secondary = rank(*pricer.deltas(path))
        valid[current] = False
        if not valid.any():
            continue
        top = primary[valid].max()
        tied = valid & (primary == top)
        candidate = int(np.argmax(np.where(tied, secondary, -np.inf)))
        move_rank = (float(top), float(secondary[candidate]))
        if best is None or move_rank > best[0]:
            best = (move_rank, path, candidate)
    return None if best is None else best[1:]


def _budget_sweep(
    candidate_sets: list[list[_Candidate]],
    budget_pages: float,
    unconstrained: list[_Candidate],
    pricer: _SwapPricer,
) -> list[_Candidate]:
    """Greedy marginal-benefit selection under the budget.

    Two budget-independent phases, every visited selection recorded:

    1. **Storage descent.** From the smallest per-path-footprint
       selection, repeatedly apply the single-path swap that most
       shrinks the joint union (ties prefer the smaller cost increase).
       The per-path start cannot see union effects — two paths may each
       prefer a private index while a shared key is jointly smaller —
       so the descent walks toward minimal-union selections tight
       budgets need.
    2. **Marginal benefit.** From the descent's end point, repeatedly
       apply the single-path swap with the best cost reduction per
       added page (pure cost reductions rank above everything).

    Moves are ranked from ``pricer``'s swap deltas. The unconstrained
    optimum is seeded into the record so generous budgets recover it
    exactly. Each recorded selection is priced once with
    :func:`_joint_cost` and :func:`_joint_storage`, and the answer is the
    cheapest that fits; nothing recorded depends on the budget, so
    feasible sets nest as the budget grows and the returned cost
    degrades monotonically as it tightens.
    """
    start = [
        min(
            range(len(candidates)),
            key=lambda index: (
                sum(candidates[index].storage.values()),
                candidates[index].total,
            ),
        )
        for candidates in candidate_sets
    ]
    seeded = [
        next(index for index, candidate in enumerate(candidates) if candidate is chosen)
        for candidates, chosen in zip(candidate_sets, unconstrained)
    ]
    visited = [start, seeded]
    pricer.reset(start)
    for rank in (_shrink_rank, _benefit_rank):
        while (move := _best_move(pricer, rank)) is not None:
            pricer.move(*move)
            visited.append(list(pricer.choice))
    feasible = []
    for choice in visited:
        selection = tuple(_chosen(candidate_sets, choice))
        if _joint_storage(selection) <= budget_pages:
            feasible.append((selection, _joint_cost(selection)[0]))
    if not feasible:
        raise OptimizerError(
            f"no joint configuration fits within {budget_pages} pages; "
            "consider including the NONE organization"
        )
    return list(min(feasible, key=lambda entry: entry[1])[0])


def optimize_multipath(
    workloads: list[PathWorkload] | None = None,
    per_row_organizations: int = 2,
    matrices: list[CostMatrix] | None = None,
    organizations: tuple[IndexOrganization, ...] | None = None,
    workers: int | None = None,
    beam_width: int | None = None,
    budget_pages: float | None = None,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
    sessions: list | None = None,
    deadline=None,
    degradation=None,
    recorder=None,
) -> MultiPathResult:
    """Jointly select configurations for several related paths.

    Parameters
    ----------
    workloads:
        One :class:`PathWorkload` per path (same schema assumed).
    per_row_organizations:
        How many of each subpath's best organizations to consider; 1 makes
        sharing only possible when locally optimal, 2 (default) lets a
        slightly worse organization win through sharing.
    matrices:
        Precomputed cost matrices, one per workload in order (e.g. from a
        previous :meth:`CostMatrix.recompute` what-if loop). Each must be
        a computed matrix (with breakdowns) of the workload's path length;
        when given, ``organizations`` and ``workers`` are ignored.
    organizations:
        Candidate organizations for the computed matrices (default: the
        paper's MX/MIX/NIX).
    workers:
        Worker processes per matrix construction (see
        :meth:`CostMatrix.compute`).
    beam_width:
        ``None`` (default) enumerates every path's candidates exactly when
        the fleet is small enough for the joint stage to walk their cross
        product exhaustively: every path's ``r·(1+r)^(n-1)`` candidate
        space within :data:`EXACT_CANDIDATE_LIMIT` and the product of the
        spaces within the exact cross-product limit. Otherwise every path
        gets a :data:`DEFAULT_BEAM_WIDTH`-wide k-best beam. An integer
        forces the beam with that many candidates per path. With
        ``beam_width`` at least the candidate-space size the beam covers
        the whole space and matches the enumeration.
    budget_pages:
        Constrain the union of selected physical indexes (shared indexes
        stored once) to this many pages; ``None`` (default) selects
        without a storage constraint. Because the constraint couples the
        per-block organization choices, budgeted generation ranks over
        *every* organization in the matrix (``per_row_organizations`` is
        ignored, and the beam adds a storage-ranked sweep so tight
        budgets keep feasible candidates); the choice between enumeration
        and beam follows the same rule as without a budget. An
        exhaustive walk returns the cheapest selection that fits;
        beyond it, the greedy sweep starts from the unconstrained
        selection. Include the ``NONE`` organization to guarantee a
        zero-storage fallback. Tightening the budget never decreases the
        returned cost.
    restarts:
        Seeded randomized restarts of the coordinate descent when the
        joint stage runs beyond the exact cross-product limit (default
        :data:`DEFAULT_RESTARTS`); ``0`` restores the single descent
        from the independent optimum. Deterministic under a fixed
        ``seed``; has no effect on exact joint searches.
    seed:
        Seed for the restart selections.
    sessions:
        One :class:`~repro.whatif.AdvisorSession` per path, instead of
        ``workloads``/``matrices``. The sessions' current statistics,
        workloads and incrementally recomputed matrices are used
        directly, and each path's candidate set is cached on its session
        keyed by the generation descriptor and the session's dirty
        version — so a what-if step re-generates candidates (and
        re-prices their :class:`SharedIndexKey` maintenance/storage
        splits) only for the paths it actually touched; untouched paths
        reuse theirs as-is.
    deadline:
        An optional :class:`~repro.resilience.Deadline`. Selection never
        aborts on expiry — it *degrades*: paths whose candidates are not
        yet generated (or cached) fall back to a width-1 beam, the
        unbudgeted joint stage returns the independent per-path optima,
        and the budgeted sweep is seeded with them instead of the
        multi-start descent. Every fallback taken is listed in the
        result's ``degradations`` (and recorded into ``degradation``
        when one is given), and degraded runs never write the session
        candidate caches.
    degradation:
        An optional :class:`~repro.resilience.DegradationReport`
        collecting structured records of every fallback — the deadline
        rungs here, plus any serial fallbacks inside the matrix
        constructions this call triggers.
    recorder:
        An optional :class:`~repro.obs.Recorder` collecting tracing
        spans (``multipath.optimize`` > ``multipath.candidates`` /
        ``multipath.joint``) and metrics (candidate-cache hits) for
        this selection and the matrix builds it triggers.
    """
    recorder = resolve_recorder(recorder)
    with recorder.span("multipath.optimize") as span:
        if sessions is not None:
            if workloads is not None or matrices is not None:
                raise OptimizerError(
                    "pass either sessions or workloads/matrices, not both"
                )
            workloads = [
                PathWorkload(stats=session.stats, load=session.load)
                for session in sessions
            ]
            matrices = [session.matrix for session in sessions]
        if not workloads:
            raise OptimizerError("at least one path is required")
        validate_selection_options(
            per_row_organizations, beam_width, budget_pages, restarts
        )
        if matrices is not None:
            if len(matrices) != len(workloads):
                raise OptimizerError(
                    f"{len(matrices)} matrices for {len(workloads)} workloads"
                )
            for workload, matrix in zip(workloads, matrices):
                if matrix.length != workload.stats.length:
                    raise OptimizerError(
                        f"matrix of length {matrix.length} cannot describe "
                        f"{workload.stats.path} (length {workload.stats.length})"
                    )
        else:
            compute_organizations = (
                organizations
                if organizations is not None
                else CONFIGURABLE_ORGANIZATIONS
            )
            matrices = build_fleet(
                workloads,
                lambda w: CostMatrix.compute(
                    w.stats,
                    w.load,
                    organizations=compute_organizations,
                    workers=workers,
                    degradation=degradation,
                    recorder=recorder,
                ),
                recorder=recorder,
            )

        degradations: list[str] = []

        def degrade(action: str, **detail) -> None:
            if degradation is not None:
                degradation.record(
                    "multipath", action, "deadline_expired", **detail
                )
            recorder.counter(
                "resilience.degradations", layer="multipath", action=action
            ).add()
            rendered = " ".join(f"{key}={value}" for key, value in detail.items())
            degradations.append(
                f"{action}: deadline_expired" + (f" {rendered}" if rendered else "")
            )

        descriptors, generation_exact = _candidate_descriptors(
            matrices, per_row_organizations, beam_width, budget_pages
        )
        candidate_sets: list[list[_Candidate]] = []
        with recorder.span("multipath.candidates", paths=len(workloads)):
            for index, (workload, matrix, descriptor) in enumerate(
                zip(workloads, matrices, descriptors)
            ):
                session = sessions[index] if sessions is not None else None
                if session is not None:
                    cached = session.candidate_cache.get(descriptor)
                    if cached is not None and cached[0] == session.version:
                        recorder.counter("multipath.candidate_cache_hits").add()
                        candidate_sets.append(cached[1])
                        continue
                if deadline is not None and deadline.expired:
                    # Out of time before this path's candidates were
                    # generated: a width-1 beam (its single locally
                    # cheapest configuration) keeps the joint stage
                    # answerable in O(path length) — and the degraded set
                    # is never stored in the session cache.
                    degrade("candidates_beam1", path=index)
                    generation_exact = False
                    descriptor = (descriptor[0], 1, budget_pages is not None)
                    session = None
                candidates = _candidates(workload, matrix, descriptor)
                if session is not None:
                    session.candidate_cache[descriptor] = (
                        session.version,
                        candidates,
                    )
                candidate_sets.append(candidates)

        independent = 0.0
        for candidates in candidate_sets:
            independent += min(candidate.total for candidate in candidates)
        combinations = math.prod(len(candidates) for candidates in candidate_sets)
        expired = deadline is not None and deadline.expired
        exhaustive = combinations <= _EXACT_LIMIT and not expired

        # The unconstrained selection, unless the joint stage finds it:
        # each path's independent optimum when out of time (sharing savings
        # may be left on the table, but the selection is valid and fully
        # priced).
        unconstrained: list[_Candidate] | None = None
        if expired:
            unconstrained = [
                min(candidates, key=lambda candidate: candidate.total)
                for candidates in candidate_sets
            ]
            degrade(
                "joint_independent" if budget_pages is None else "budget_sweep_seeded"
            )
        selection = unconstrained
        if budget_pages is not None or unconstrained is None:
            with recorder.span(
                "multipath.joint",
                combinations=combinations,
                budgeted=budget_pages is not None,
            ) as joint:
                pricer: _SwapPricer | None = None
                if exhaustive:
                    selection, unconstrained = _exhaustive(
                        candidate_sets, budget_pages
                    )
                else:
                    pricer = _SwapPricer(candidate_sets)
                    if unconstrained is None:
                        unconstrained = _select_unconstrained(
                            candidate_sets, restarts, seed, pricer
                        )
                    selection = (
                        unconstrained
                        if budget_pages is None
                        else _budget_sweep(
                            candidate_sets, budget_pages, unconstrained, pricer
                        )
                    )
                joint.note(
                    priced=pricer.priced if pricer is not None else 0,
                    moves=pricer.moves if pricer is not None else 0,
                )

        cost, savings = _joint_cost(tuple(selection))
        result = MultiPathResult(
            configurations=[candidate.configuration for candidate in selection],
            total_cost=cost,
            shared_savings=savings,
            independent_cost=independent,
            exact=generation_exact and exhaustive,
            storage_pages=_joint_storage(tuple(selection)),
            budget_pages=budget_pages,
            unconstrained_cost=(
                None
                if budget_pages is None
                else _joint_cost(tuple(unconstrained))[0]
            ),
            degradations=tuple(degradations),
        )
        span.note(paths=len(result.configurations), exact=result.exact)
    recorder.counter("multipath.optimizations").add()
    return result
