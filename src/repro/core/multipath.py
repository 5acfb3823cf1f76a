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

Selection is staged:

1. **Candidate generation per path.** Each path contributes its locally
   cheapest configurations, with the best ``per_row_organizations``
   organizations per subpath so sharing can win even when it is not
   locally optimal. Short paths are enumerated exactly; beyond
   :data:`EXACT_CANDIDATE_LIMIT` candidates the generator is the k-best
   beam sweep :func:`repro.search.partitions.top_configurations`
   (``beam_width`` candidates per path, exact over the space it covers),
   which keeps many-long-paths joint selection out of the ``2^(n-1)``
   regime entirely. Passing ``beam_width`` explicitly forces the beam;
   the exact enumeration is retained as the parity oracle for small
   instances.
2. **Joint search across paths.** The cross product of the candidate
   sets is searched exactly when it is small
   (:data:`_EXACT_LIMIT` combinations) and by greedy coordinate descent
   otherwise — hedged with :data:`DEFAULT_RESTARTS` seeded randomized
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
   budget: exact filtered search when the cross product is small, and
   otherwise a greedy marginal-benefit sweep (best cost-reduction per
   added page first) whose recorded trajectory is filtered by the
   budget, so tighter budgets always cost at least as much as looser
   ones. The sweep ranks its moves from the same per-path cost and
   storage deltas; each recorded selection is priced once by
   :func:`_joint_cost` and :func:`_joint_storage`, so the budget filter
   and every reported number come from them. The budget-free path
   remains the default (``budget_pages=None``).

For what-if loops, :func:`optimize_multipath` also accepts one
:class:`~repro.whatif.AdvisorSession` per path (``sessions=``): matrices
come from the sessions' incremental recomputes, and each path's candidate
set — including its per-:class:`SharedIndexKey` maintenance and storage
pricing — is cached on the session and regenerated only when that path's
dirty version moved. A caller-owned ``joint_cache`` extends the reuse to
the joint stage itself: in the descent regime the previously selected
configurations are kept (re-priced, multi-start descent skipped) while
they remain a local optimum of the regenerated candidate sets.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

import numpy as np

from repro.core.configuration import IndexConfiguration, IndexedSubpath
from repro.core.cost_matrix import CostMatrix
from repro.costmodel.params import PathStatistics
from repro.errors import OptimizerError
from repro.kernel.arrays import fold_segments
from repro.obs.recorder import NULL_RECORDER, resolve_recorder
from repro.organizations import CONFIGURABLE_ORGANIZATIONS, IndexOrganization
from repro.search.partitions import (
    configuration_count,
    enumerate_partitions,
    top_configurations,
)
from repro.workload.load import LoadDistribution

#: Above this many cross-path combinations the joint search switches to
#: coordinate descent.
_EXACT_LIMIT = 200_000

#: Largest per-path candidate space (``r·(1+r)^(n-1)``) that is still
#: enumerated exactly when ``beam_width`` is not forced. Length 10 with
#: two organizations per row is ~39k candidates; length 11 crosses this
#: limit and switches to the beam generator.
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


def _candidates_exact(
    workload: PathWorkload, matrix: CostMatrix, per_row_organizations: int
) -> list[_Candidate]:
    """The parity oracle: all partitions × best organizations per block."""
    assignments: list[tuple[IndexedSubpath, ...]] = []
    for blocks in enumerate_partitions(matrix.length):
        # Per block: the best `per_row_organizations` organizations.
        options: list[list[IndexedSubpath]] = []
        for start, end in blocks:
            # Tie-tolerant ranking (the Min_Cost tolerance): near-tie
            # organizations rank by column order, so the candidate pool is
            # stable across platforms and cost-model reformulations.
            ranked = matrix.ranked_organizations(
                start, end, limit=per_row_organizations
            )
            options.append(
                [IndexedSubpath(start, end, org) for org in ranked]
            )
        assignments.extend(itertools.product(*options))
    return _price_candidates(workload.stats, matrix, assignments)


def _candidates_beam(
    workload: PathWorkload,
    matrix: CostMatrix,
    per_row_organizations: int,
    width: int,
) -> list[_Candidate]:
    """Top-``width`` locally cheapest configurations via the k-best sweep."""
    return _price_candidates(
        workload.stats,
        matrix,
        [
            parts
            for _cost, parts in top_configurations(
                matrix, count=width, per_row_organizations=per_row_organizations
            )
        ],
    )


def _candidates_budget(
    workload: PathWorkload,
    matrix: CostMatrix,
    width: int,
) -> list[_Candidate]:
    """Beam candidates for the budgeted search: cheapest ∪ smallest.

    Two k-best sweeps over every organization per block — one ranked by
    processing cost, one by storage pages — merged without duplicates.
    With ``width`` at least the candidate-space size the cost sweep alone
    already covers the whole space.
    """
    organizations = len(matrix.organizations)
    assignments = [
        tuple(parts)
        for _cost, parts in top_configurations(
            matrix, count=width, per_row_organizations=organizations
        )
    ]
    # Dedupe by parts (configuration identity) *before* pricing, so the
    # storage sweep's overlap with the cost sweep is never priced twice.
    seen = set(assignments)
    for _pages, parts in top_configurations(
        matrix._storage_matrix(),
        count=width,
        per_row_organizations=organizations,
    ):
        assignment = tuple(parts)
        if assignment not in seen:
            seen.add(assignment)
            assignments.append(assignment)
    return _price_candidates(workload.stats, matrix, assignments)


def _candidate_descriptors(
    matrices: list[CostMatrix],
    per_row_organizations: int,
    beam_width: int | None,
    budget_pages: float | None,
) -> tuple[list[tuple], bool]:
    """Per-path candidate-generation descriptors plus the exactness flag.

    A descriptor is a hashable tuple fully determining what
    :func:`_generate_candidates` produces for a path — ``("exact", r)``,
    ``("beam", r, width)`` or ``("budget_beam", width)`` — which makes it
    the cache key for session-carried candidate sets: identical
    descriptor + unchanged matrix (session version) ⇒ identical
    candidates. The mode decisions are unchanged from the pre-session
    code paths; only their bookkeeping moved here.
    """
    descriptors: list[tuple] = []
    generation_exact = True
    if budget_pages is None:
        for matrix in matrices:
            space = configuration_count(matrix.length, per_row_organizations)
            if beam_width is None and space <= EXACT_CANDIDATE_LIMIT:
                descriptors.append(("exact", per_row_organizations))
            else:
                width = (
                    beam_width if beam_width is not None else DEFAULT_BEAM_WIDTH
                )
                descriptors.append(("beam", per_row_organizations, width))
                if width < space:
                    generation_exact = False
    else:
        # A storage budget couples the per-block organization choices (the
        # affordable option may be any organization, NONE included), so
        # budgeted generation ranks over every organization in the matrix
        # — the same widening optimize_with_budget applies — instead of
        # the cost-ranked best per_row_organizations. The generation mode
        # is decided globally: exact enumeration only when the downstream
        # filtered cross product is exhaustive too, because handing tens
        # of thousands of exact candidates per path to the greedy sweep
        # multiplies every swap scan for no exactness in return.
        spaces = [
            configuration_count(matrix.length, len(matrix.organizations))
            for matrix in matrices
        ]
        product = 1
        for space in spaces:
            product *= space
        if (
            beam_width is None
            and max(spaces) <= EXACT_CANDIDATE_LIMIT
            and product <= _EXACT_LIMIT
        ):
            for matrix in matrices:
                descriptors.append(("exact", len(matrix.organizations)))
        else:
            width = beam_width if beam_width is not None else DEFAULT_BEAM_WIDTH
            for space in spaces:
                descriptors.append(("budget_beam", width))
                if width < space:
                    generation_exact = False
    return descriptors, generation_exact


def _generate_candidates(
    workload: PathWorkload, matrix: CostMatrix, descriptor: tuple
) -> list[_Candidate]:
    """Produce one path's candidate set for a generation descriptor."""
    kind = descriptor[0]
    if kind == "exact":
        return _candidates_exact(workload, matrix, descriptor[1])
    if kind == "beam":
        return _candidates_beam(workload, matrix, descriptor[1], descriptor[2])
    return _candidates_budget(workload, matrix, descriptor[1])


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


def _reuse_joint_selection(
    joint_cache: dict,
    cache_key: tuple,
    candidate_sets: list[list[_Candidate]],
    pricer: _SwapPricer,
) -> list[_Candidate] | None:
    """The cached joint selection re-validated against fresh candidates.

    Maps the previously selected configurations into the regenerated
    candidate sets (their pricing may have moved with the perturbed
    matrices) and scans the paths' swap deltas for a single improving
    single-path swap — the same improvement predicate as the coordinate
    descent, stopping at the first path with a hit. When no swap
    improves, the cached selection is still a local optimum of the
    updated sharing landscape: the mapped selection is returned, the
    caller skips the multi-start descent entirely, and the ``reuses``
    counter records it so tests can assert the reuse happened rather
    than timing it. Any other outcome (options changed, a selected
    configuration fell out of its candidate set, a swap improved)
    returns ``None`` and the full joint stage runs.
    """
    entry = joint_cache.get("entry")
    if entry is None or entry[0] != cache_key:
        return None
    previous: list[IndexConfiguration] = entry[1]
    if len(previous) != len(candidate_sets):
        return None
    choice: list[int] = []
    for configuration, candidates in zip(previous, candidate_sets):
        match = next(
            (
                index
                for index, candidate in enumerate(candidates)
                if candidate.configuration == configuration
            ),
            None,
        )
        if match is None:
            return None
        choice.append(match)
    pricer.reset(choice)
    for path in range(len(choice)):
        cost, _ = pricer.deltas(path)
        if (cost < -1e-12).any():
            return None
    joint_cache["reuses"] = joint_cache.get("reuses", 0) + 1
    return _chosen(candidate_sets, choice)


def _select_unconstrained(
    candidate_sets: list[list[_Candidate]],
    restarts: int,
    seed: int,
    pricer: _SwapPricer | None,
) -> tuple[list[_Candidate], bool]:
    """Best joint selection, exact for small cross products.

    Beyond :data:`_EXACT_LIMIT` combinations the search is coordinate
    descent from the independent optimum, hedged by ``restarts`` extra
    descents from selections drawn uniformly at random per path (seeded:
    the same ``seed`` always explores the same restarts, so results are
    deterministic). ``pricer`` ranks the descents' swaps; the exact cross
    product does not use it. The best of all descents, compared by
    :func:`_joint_cost`, wins; ties keep the independent-optimum descent.
    """
    combinations = 1
    for candidates in candidate_sets:
        combinations *= len(candidates)
    if combinations <= _EXACT_LIMIT:
        best_cost = float("inf")
        best_selection: tuple[_Candidate, ...] | None = None
        for selection in itertools.product(*candidate_sets):
            cost, _ = _joint_cost(selection)
            if cost < best_cost:
                best_cost = cost
                best_selection = selection
        assert best_selection is not None
        return list(best_selection), True

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
    return best_selection, False


def _select_budgeted_exact(
    candidate_sets: list[list[_Candidate]], budget_pages: float
) -> tuple[list[_Candidate], list[_Candidate]]:
    """One exhaustive pass over the cross product, tracking two optima.

    Returns ``(best_feasible, best_overall)`` — the cheapest selection
    whose physical-index union fits the budget and the cheapest
    selection outright (for the ``unconstrained_cost`` report) — so the
    exact budgeted path never walks the product twice.
    """
    best_cost = float("inf")
    best_selection: tuple[_Candidate, ...] | None = None
    overall_cost = float("inf")
    overall_selection: tuple[_Candidate, ...] | None = None
    for selection in itertools.product(*candidate_sets):
        cost, _ = _joint_cost(selection)
        if cost < overall_cost:
            overall_cost = cost
            overall_selection = selection
        if cost < best_cost and _joint_storage(selection) <= budget_pages:
            best_cost = cost
            best_selection = selection
    if best_selection is None:
        raise OptimizerError(
            f"no joint configuration fits within {budget_pages} pages; "
            "consider including the NONE organization"
        )
    assert overall_selection is not None
    return list(best_selection), list(overall_selection)


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


def _note_swaps(span, pricer: _SwapPricer | None) -> None:
    """Note on the ``multipath.joint`` span how many swaps it scored and applied."""
    span.note(
        priced=pricer.priced if pricer is not None else 0,
        moves=pricer.moves if pricer is not None else 0,
    )


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
    joint_cache: dict | None = None,
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
        ``None`` (default) enumerates a path's candidates exactly while
        its ``r·(1+r)^(n-1)`` candidate space stays within
        :data:`EXACT_CANDIDATE_LIMIT` and falls back to a
        :data:`DEFAULT_BEAM_WIDTH`-wide k-best beam beyond; an integer
        forces the beam with that many candidates per path. With
        ``beam_width`` at least the candidate-space size the beam covers
        the whole space and matches the exact oracle.
    budget_pages:
        Constrain the union of selected physical indexes (shared indexes
        stored once) to this many pages; ``None`` (default) selects
        without a storage constraint. Because the constraint couples the
        per-block organization choices, budgeted generation ranks over
        *every* organization in the matrix (``per_row_organizations`` is
        ignored, and the beam adds a storage-ranked sweep so tight
        budgets keep feasible candidates). Candidates are enumerated
        exactly only when the downstream filtered cross product is
        exhaustive as well; otherwise every path uses the capped beam so
        the greedy sweep stays fast. Include the ``NONE`` organization
        to guarantee a zero-storage fallback. Tightening the budget
        never decreases the returned cost.
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
    joint_cache:
        A caller-owned dict carrying joint-selection reuse state across
        calls (:class:`~repro.whatif.MultiPathSession` passes its own).
        In the unbudgeted *descent* regime (cross product beyond the
        exact limit) the previously selected configurations are mapped
        into the fresh candidate sets and kept — multi-start descent
        skipped, ``joint_cache["reuses"]`` incremented — whenever they
        are still a local optimum, i.e. when only candidates *outside*
        the selection changed enough to matter; the result is re-priced
        against the current matrices either way. Exact joint searches
        and budgeted selections ignore the cache (their answers come
        from exhaustive scans that cannot be partially reused).
    deadline:
        An optional :class:`~repro.resilience.Deadline`. Selection never
        aborts on expiry — it *degrades*: paths whose candidates are not
        yet generated (or cached) fall back to a width-1 beam, the
        unbudgeted joint stage returns the independent per-path optima,
        and the budgeted sweep is seeded with them instead of the
        multi-start descent. Every fallback taken is listed in the
        result's ``degradations`` (and recorded into ``degradation``
        when one is given), and degraded runs never write the
        ``joint_cache`` or session candidate caches.
    degradation:
        An optional :class:`~repro.resilience.DegradationReport`
        collecting structured records of every fallback — the deadline
        rungs here, plus any serial fallbacks inside the matrix
        constructions this call triggers.
    recorder:
        An optional :class:`~repro.obs.Recorder` collecting tracing
        spans (``multipath.optimize`` > ``multipath.candidates`` /
        ``multipath.joint``) and metrics (candidate-cache hits, joint
        reuses) for this selection and the matrix builds it triggers.
    """
    recorder = resolve_recorder(recorder)
    with recorder.span("multipath.optimize") as span:
        result = _optimize_multipath(
            workloads,
            per_row_organizations,
            matrices,
            organizations,
            workers,
            beam_width,
            budget_pages,
            restarts,
            seed,
            sessions,
            joint_cache,
            deadline,
            degradation,
            recorder,
        )
        span.note(paths=len(result.configurations), exact=result.exact)
    recorder.counter("multipath.optimizations").add()
    return result


def _optimize_multipath(
    workloads,
    per_row_organizations,
    matrices,
    organizations,
    workers,
    beam_width,
    budget_pages,
    restarts,
    seed,
    sessions,
    joint_cache,
    deadline,
    degradation,
    recorder=NULL_RECORDER,
) -> MultiPathResult:
    """The selection pipeline behind :func:`optimize_multipath`."""
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
        matrices = [
            CostMatrix.compute(
                w.stats,
                w.load,
                organizations=compute_organizations,
                workers=workers,
                degradation=degradation,
                recorder=recorder,
            )
            for w in workloads
        ]

    degradations: list[str] = []

    def degrade(action: str, **detail) -> None:
        if degradation is not None:
            degradation.record("multipath", action, "deadline_expired", **detail)
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
                # generated: a width-1 beam (its single locally cheapest
                # configuration) keeps the joint stage answerable in
                # O(path length) — and the degraded set is never stored
                # in the session cache.
                fallback = (
                    ("budget_beam", 1)
                    if budget_pages is not None
                    else ("beam", per_row_organizations, 1)
                )
                degrade("candidates_beam1", path=index)
                recorder.counter(
                    "resilience.degradations",
                    layer="multipath",
                    action="candidates_beam1",
                ).add()
                generation_exact = False
                candidate_sets.append(
                    _generate_candidates(workload, matrix, fallback)
                )
                continue
            candidates = _generate_candidates(workload, matrix, descriptor)
            if session is not None:
                session.candidate_cache[descriptor] = (
                    session.version,
                    candidates,
                )
            candidate_sets.append(candidates)

    independent = 0.0
    for candidates in candidate_sets:
        independent += min(candidate.total for candidate in candidates)

    if budget_pages is None:
        if deadline is not None and deadline.expired:
            # No time for a joint search: each path keeps its independent
            # optimum (sharing savings may be left on the table, but the
            # selection is valid and fully priced).
            selection = [
                min(candidates, key=lambda candidate: candidate.total)
                for candidates in candidate_sets
            ]
            degrade("joint_independent")
            recorder.counter(
                "resilience.degradations",
                layer="multipath",
                action="joint_independent",
            ).add()
            cost, savings = _joint_cost(tuple(selection))
            return MultiPathResult(
                configurations=[c.configuration for c in selection],
                total_cost=cost,
                shared_savings=savings,
                independent_cost=independent,
                exact=False,
                storage_pages=_joint_storage(tuple(selection)),
                degradations=tuple(degradations),
            )
        combinations = 1
        for candidates in candidate_sets:
            combinations *= len(candidates)
        descent_regime = combinations > _EXACT_LIMIT
        pricer = _SwapPricer(candidate_sets) if descent_regime else None
        cache_key = (per_row_organizations, beam_width, restarts, seed)
        if joint_cache is not None and descent_regime and not degradations:
            reused = _reuse_joint_selection(
                joint_cache, cache_key, candidate_sets, pricer
            )
            if reused is not None:
                recorder.counter("multipath.joint_reuses").add()
                cost, savings = _joint_cost(tuple(reused))
                return MultiPathResult(
                    configurations=[c.configuration for c in reused],
                    total_cost=cost,
                    shared_savings=savings,
                    independent_cost=independent,
                    exact=False,
                    storage_pages=_joint_storage(tuple(reused)),
                )
        with recorder.span(
            "multipath.joint", combinations=combinations, budgeted=False
        ) as span:
            selection, product_exact = _select_unconstrained(
                candidate_sets, restarts, seed, pricer
            )
            _note_swaps(span, pricer)
        if joint_cache is not None and descent_regime and not degradations:
            joint_cache["entry"] = (
                cache_key,
                [candidate.configuration for candidate in selection],
            )
        cost, savings = _joint_cost(tuple(selection))
        return MultiPathResult(
            configurations=[c.configuration for c in selection],
            total_cost=cost,
            shared_savings=savings,
            independent_cost=independent,
            exact=generation_exact and product_exact,
            storage_pages=_joint_storage(tuple(selection)),
            degradations=tuple(degradations),
        )

    combinations = 1
    for candidates in candidate_sets:
        combinations *= len(candidates)
    expired = deadline is not None and deadline.expired
    with recorder.span(
        "multipath.joint", combinations=combinations, budgeted=True
    ) as span:
        pricer = None
        if combinations <= _EXACT_LIMIT and not expired:
            selection, unconstrained = _select_budgeted_exact(
                candidate_sets, budget_pages
            )
            budget_exact = True
        else:
            pricer = _SwapPricer(candidate_sets)
            if expired:
                # Feasibility cannot be skipped under a budget, so the
                # sweep still runs — but seeded with the independent
                # optima instead of the multi-start coordinate descent.
                unconstrained = [
                    min(candidates, key=lambda candidate: candidate.total)
                    for candidates in candidate_sets
                ]
                degrade("budget_sweep_seeded")
                recorder.counter(
                    "resilience.degradations",
                    layer="multipath",
                    action="budget_sweep_seeded",
                ).add()
            else:
                unconstrained, _ = _select_unconstrained(
                    candidate_sets, restarts, seed, pricer
                )
            selection = _budget_sweep(
                candidate_sets, budget_pages, unconstrained, pricer
            )
            budget_exact = False
        _note_swaps(span, pricer)
    cost, savings = _joint_cost(tuple(selection))
    return MultiPathResult(
        configurations=[c.configuration for c in selection],
        total_cost=cost,
        shared_savings=savings,
        independent_cost=independent,
        exact=generation_exact and budget_exact,
        storage_pages=_joint_storage(tuple(selection)),
        budget_pages=budget_pages,
        unconstrained_cost=_joint_cost(tuple(unconstrained))[0],
        degradations=tuple(degradations),
    )
