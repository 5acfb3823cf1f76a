"""Reference joint-stage scans for ``repro.core.multipath``.

The joint stage ranks single-path swaps from per-path cost and storage
deltas. These are the per-trial scans it replaced: every trial swap
rebuilds the whole selection and re-prices it with
:func:`~repro.core.multipath._joint_cost` and
:func:`~repro.core.multipath._joint_storage`. They are kept here, and
only here, as the reference the delta engine must agree with.

:func:`select_exact` and :func:`select_budgeted_exact` are the two
product loops that :func:`~repro.core.multipath._exhaustive` merged: the
unbudgeted and the budgeted walk over the whole cross product.

:func:`install` swaps them into the module for one test (through
pytest's ``monkeypatch``) and returns a :class:`Work` tally that counts
what they did the way the ``multipath.joint`` span's notes count the
engine's work: ``priced`` adds a path's candidate count less one (the
current candidate) per path scan, and ``moves`` adds one per path scan
of a descent that changed the selection and one per sweep step.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from repro.core import multipath as mp
from repro.errors import OptimizerError


@dataclass
class Work:
    """Swaps scored and moves applied by the reference scans."""

    priced: int = 0
    moves: int = 0


def descend(candidate_sets, selection, work):
    """Greedy coordinate descent: re-optimize one path at a time until stable."""
    improved = True
    while improved:
        improved = False
        for index, candidates in enumerate(candidate_sets):
            work.priced += len(candidates) - 1
            current_cost, _ = mp._joint_cost(tuple(selection))
            moved = False
            for candidate in candidates:
                trial = list(selection)
                trial[index] = candidate
                cost, _ = mp._joint_cost(tuple(trial))
                if cost < current_cost - 1e-12:
                    selection = trial
                    current_cost = cost
                    improved = moved = True
            work.moves += moved
    return selection


def select_unconstrained(candidate_sets, restarts, seed, work):
    """Exact cross product when small, else seeded multi-start descent."""
    combinations = 1
    for candidates in candidate_sets:
        combinations *= len(candidates)
    if combinations <= mp._EXACT_LIMIT:
        best_cost = float("inf")
        best_selection = None
        for selection in itertools.product(*candidate_sets):
            cost, _ = mp._joint_cost(selection)
            if cost < best_cost:
                best_cost = cost
                best_selection = selection
        return list(best_selection), True

    selection = [
        min(candidates, key=lambda candidate: candidate.total)
        for candidates in candidate_sets
    ]
    best_selection = descend(candidate_sets, selection, work)
    best_cost, _ = mp._joint_cost(tuple(best_selection))
    rng = random.Random(seed)
    for _ in range(restarts):
        start = [rng.choice(candidates) for candidates in candidate_sets]
        restarted = descend(candidate_sets, start, work)
        cost, _ = mp._joint_cost(tuple(restarted))
        if cost < best_cost - 1e-12:
            best_cost = cost
            best_selection = restarted
    return best_selection, False


def select_exact(candidate_sets):
    """The cheapest selection of the whole cross product."""
    best_cost = float("inf")
    best_selection = None
    for selection in itertools.product(*candidate_sets):
        cost, _ = mp._joint_cost(selection)
        if cost < best_cost:
            best_cost = cost
            best_selection = selection
    assert best_selection is not None
    return list(best_selection), True


def select_budgeted_exact(candidate_sets, budget_pages):
    """The cheapest selection that fits the budget, and the cheapest outright."""
    best_cost = float("inf")
    best_selection = None
    overall_cost = float("inf")
    overall_selection = None
    for selection in itertools.product(*candidate_sets):
        cost, _ = mp._joint_cost(selection)
        if cost < overall_cost:
            overall_cost = cost
            overall_selection = selection
        if cost < best_cost and mp._joint_storage(selection) <= budget_pages:
            best_cost = cost
            best_selection = selection
    if best_selection is None:
        raise OptimizerError(
            f"no joint configuration fits within {budget_pages} pages; "
            "consider including the NONE organization"
        )
    assert overall_selection is not None
    return list(best_selection), list(overall_selection)


def best_swap(candidate_sets, selection, rank, work):
    """The best single-path swap under a ranking rule, or ``None``."""
    best = None
    for index, candidates in enumerate(candidate_sets):
        work.priced += len(candidates) - 1
        for candidate in candidates:
            if candidate is selection[index]:
                continue
            trial = list(selection)
            trial[index] = candidate
            trial_cost, _ = mp._joint_cost(tuple(trial))
            trial_storage = mp._joint_storage(tuple(trial))
            move_rank = rank(trial_cost, trial_storage)
            if move_rank is None:
                continue
            if best is None or move_rank > best[0]:
                best = (move_rank, index, candidate, trial_cost, trial_storage)
    return best


def shrink_rank(cost, storage):
    """Storage-descent rank of a trial around the current ``(cost, storage)``."""

    def rank(trial_cost, trial_storage):
        reduction = storage - trial_storage
        if reduction <= 1e-12:
            return None
        return (reduction, cost - trial_cost)

    return rank


def benefit_rank(cost, storage):
    """Marginal-benefit rank of a trial around the current ``(cost, storage)``."""

    def rank(trial_cost, trial_storage):
        reduction = cost - trial_cost
        if reduction <= 1e-12:
            return None
        added = trial_storage - storage
        ratio = float("inf") if added <= 0 else reduction / added
        return (ratio, reduction)

    return rank


def budget_sweep(candidate_sets, budget_pages, unconstrained, work):
    """Storage descent, then marginal benefit; cheapest recorded fit wins."""
    selection = [
        min(
            candidates,
            key=lambda candidate: (sum(candidate.storage.values()), candidate.total),
        )
        for candidates in candidate_sets
    ]
    cost, _ = mp._joint_cost(tuple(selection))
    storage = mp._joint_storage(tuple(selection))
    visited = [
        (list(selection), cost, storage),
        (
            list(unconstrained),
            mp._joint_cost(tuple(unconstrained))[0],
            mp._joint_storage(tuple(unconstrained)),
        ),
    ]
    for make_rank in (shrink_rank, benefit_rank):
        while True:
            move = best_swap(
                candidate_sets, selection, make_rank(cost, storage), work
            )
            if move is None:
                break
            _, index, candidate, cost, storage = move
            selection[index] = candidate
            work.moves += 1
            visited.append((list(selection), cost, storage))
    feasible = [entry for entry in visited if entry[2] <= budget_pages]
    if not feasible:
        raise OptimizerError(
            f"no joint configuration fits within {budget_pages} pages; "
            "consider including the NONE organization"
        )
    return min(feasible, key=lambda entry: entry[1])[0]


def install(monkeypatch) -> Work:
    """Run the module's joint stage on the reference scans; tally their work."""
    work = Work()
    monkeypatch.setattr(
        mp,
        "_select_unconstrained",
        lambda candidate_sets, restarts, seed, _pricer: select_unconstrained(
            candidate_sets, restarts, seed, work
        )[0],
    )
    monkeypatch.setattr(
        mp,
        "_budget_sweep",
        lambda candidate_sets, budget_pages, unconstrained, _pricer: budget_sweep(
            candidate_sets, budget_pages, unconstrained, work
        ),
    )
    return work
