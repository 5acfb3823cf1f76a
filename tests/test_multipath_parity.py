"""The joint stage's swap-delta engine against the per-trial reference scans.

``core/multipath.py`` ranks single-path swaps from per-path cost and
storage deltas (:class:`~repro.core.multipath._SwapPricer`); the scans it
replaced, which re-price every trial selection with ``_joint_cost`` and
``_joint_storage``, live in ``tests/multipath_reference.py``. Pinned here:

* every :class:`~repro.core.multipath.MultiPathResult` field equals the
  reference's on overlapping suffix fleets, duplicated-path fleets (exact
  sharing ties) and unrelated paths, under budgets of 0-1x the
  unconstrained footprint and unbudgeted — with ``_EXACT_LIMIT`` forced
  to 1 so the descent and the sweep run instead of the exact cross
  products;
* a :class:`~repro.whatif.MultiPathSession` perturbation sequence
  answers what the reference and a fresh ``optimize_multipath`` answer;
* each cost and storage delta equals the difference of the joint prices
  of the trial and the current selection, after any sequence of moves;
* each joint-stage regime — exhaustive, descent, sweep, expired
  candidates, expired joint stage, a session step after a perturbation —
  opens (or skips) the ``multipath.joint`` span with the same notes,
  ``exact`` flag, degradations and counters;
* the merged exhaustive walk returns what the two product loops it
  replaced return, ties and infeasible budgets included.
"""

import operator
from dataclasses import replace
from typing import NamedTuple

import pytest
from conftest import make_suffix_fleet
from hypothesis import given, settings
from hypothesis import strategies as st
from test_resilience_units import expired_deadline

import multipath_reference as reference
from repro.core import multipath as mp
from repro.core.configuration import IndexConfiguration
from repro.core.cost_matrix import CostMatrix
from repro.errors import OptimizerError
from repro.obs import Recorder
from repro.obs.metrics import metric_key
from repro.organizations import EXTENDED_ORGANIZATIONS, IndexOrganization
from repro.resilience import DegradationReport
from repro.whatif import MultiPathSession, Perturbation

BUDGET_FRACTIONS = (0.0, 0.1, 0.25, 0.5, 1.0)

FLEETS = {
    "suffix": lambda: make_suffix_fleet(21, chain_length=12, paths=4),
    "duplicated": lambda: [
        workload
        for workload in make_suffix_fleet(22, chain_length=10, paths=2)
        for _ in range(2)
    ],
    "unrelated": lambda: [
        make_suffix_fleet(23 + index, chain_length=9 + index, paths=1, prefix=prefix)[0]
        for index, prefix in enumerate("ABC")
    ],
}


@pytest.fixture(scope="module", params=sorted(FLEETS))
def fleet(request):
    workloads = FLEETS[request.param]()
    matrices = [
        CostMatrix.compute(w.stats, w.load, organizations=EXTENDED_ORGANIZATIONS)
        for w in workloads
    ]
    return workloads, matrices


class TestJointStageParity:
    def test_every_field_matches_the_reference(self, fleet, monkeypatch):
        workloads, matrices = fleet
        monkeypatch.setattr(mp, "_EXACT_LIMIT", 1)

        def both(budget):
            options = dict(matrices=matrices, beam_width=16, budget_pages=budget)
            engine = mp.optimize_multipath(workloads, **options)
            with monkeypatch.context() as patch:
                reference.install(patch)
                scans = mp.optimize_multipath(workloads, **options)
            assert engine == scans, budget
            assert not engine.exact
            return engine

        footprint = both(None).storage_pages
        for fraction in BUDGET_FRACTIONS:
            both(footprint * fraction)

    def test_session_sequence_matches_the_reference(self, monkeypatch):
        monkeypatch.setattr(mp, "_EXACT_LIMIT", 1)
        steps = [
            (0, Perturbation("L2", "query", "scale", 1.001)),
            (0, Perturbation("L0", "query", "set", 0.0)),
            (2, Perturbation("L7", "delete", "scale", 1000.0)),
            (1, Perturbation("L3", "query", "scale", 1.002)),
            (1, Perturbation("L4", "insert", "scale", 1000.0)),
        ]

        def replay():
            joint = MultiPathSession.from_workloads(
                make_suffix_fleet(24, chain_length=8, paths=3)
            )
            results = [joint.optimize(beam_width=8)]
            for index, perturbation in steps:
                joint.perturb(index, perturbation)
                results.append(joint.optimize(beam_width=8))
                fresh = mp.optimize_multipath(
                    [mp.PathWorkload(s.stats, s.load) for s in joint.sessions],
                    beam_width=8,
                )
                assert results[-1] == fresh
            return results

        engine = replay()
        with monkeypatch.context() as patch:
            reference.install(patch)
            scans = replay()
        assert engine == scans


class Regime(NamedTuple):
    """One joint-stage regime and what its last call must leave behind."""

    #: ``"short"`` (lengths 3 and 2, exhaustive) or ``"long"`` (lengths
    #: 8, 7 and 6, ``beam_width=8`` and ``_EXACT_LIMIT`` at 1).
    fleet: str
    #: One set of flags per ``MultiPathSession.optimize`` call:
    #: ``"budget"`` (half the fleet's unconstrained footprint),
    #: ``"expired"`` (an expired deadline), and ``"drift"`` or ``"shift"``
    #: (a perturbation applied first that keeps / breaks the previous
    #: selection's local optimality).
    calls: tuple
    #: The ``multipath.joint`` span's ``combinations``, ``None`` when the
    #: last call opens no such span.
    combinations: int | None
    budgeted: bool
    exact: bool
    degradations: tuple[str, ...]


_BEAM1 = tuple(f"candidates_beam1: deadline_expired path={path}" for path in (0, 1))
REGIMES = {
    # 18 × 6: every partition, the two best organizations per block.
    "exhaustive": Regime("short", ((),), 108, False, True, ()),
    # 100 × 20: every partition, all four organizations per block.
    "exhaustive-budgeted": Regime("short", (("budget",),), 2000, True, True, ()),
    "descent": Regime("long", ((),), 8**3, False, False, ()),
    # The cost sweep's 8 plus the storage sweep's 8 per path.
    "sweep": Regime("long", (("budget",),), 16**3, True, False, ()),
    "candidates-expired": Regime(
        "short",
        (("expired",),),
        None,
        False,
        False,
        _BEAM1 + ("joint_independent: deadline_expired",),
    ),
    # Width-1 beams: each path's cheapest and smallest configuration.
    "candidates-expired-budgeted": Regime(
        "short",
        (("budget", "expired"),),
        2 * 2,
        True,
        False,
        _BEAM1 + ("budget_sweep_seeded: deadline_expired",),
    ),
    # Warm candidate caches skip the deadline check: only the joint
    # stage sees the expiry.
    "joint-expired": Regime(
        "short",
        ((), ("expired",)),
        None,
        False,
        False,
        ("joint_independent: deadline_expired",),
    ),
    "joint-expired-budgeted": Regime(
        "short",
        (("budget",), ("budget", "expired")),
        2000,
        True,
        False,
        ("budget_sweep_seeded: deadline_expired",),
    ),
    # A session step descends afresh whether the previous selection is
    # still a local optimum ("hit") or not ("miss").
    "reuse-hit": Regime("long", ((), ("drift",)), 8**3, False, False, ()),
    "reuse-miss": Regime("long", ((), ("shift",)), 8**3, False, False, ()),
    # The drift that keeps an unbudgeted selection, under a budget.
    "sweep-after-drift": Regime(
        "long", (("budget",), ("budget", "drift")), 16**3, True, False, ()
    ),
}
_PERTURBATIONS = {
    "drift": (0, Perturbation("L2", "query", "scale", 1.001)),
    "shift": (0, Perturbation("L0", "query", "set", 0.0)),
}
_ACTIONS = ("candidates_beam1", "joint_independent", "budget_sweep_seeded")


def _regime_fleet(name):
    if name == "short":
        return make_suffix_fleet(41, chain_length=3, paths=2), {}
    return make_suffix_fleet(43, chain_length=8, paths=3), {"beam_width": 8}


def observe_regime(regime, monkeypatch, scans=False):
    """Run a regime's calls through one session; observe the last call.

    Returns the result, the call's :class:`DegradationReport`, its
    ``multipath.joint`` span arguments (``None`` when absent), its counter
    increments and, with ``scans``, the reference scans' ``(priced,
    moves)`` tally for the call.
    """
    workloads, options = _regime_fleet(regime.fleet)
    budget = 0.5 * mp.optimize_multipath(
        workloads, organizations=EXTENDED_ORGANIZATIONS, **options
    ).storage_pages
    with monkeypatch.context() as patch:
        if regime.fleet == "long":
            patch.setattr(mp, "_EXACT_LIMIT", 1)
        work = reference.install(patch) if scans else reference.Work()
        recorder = Recorder()
        joint = MultiPathSession.from_workloads(
            workloads, organizations=EXTENDED_ORGANIZATIONS, recorder=recorder
        )
        for flags in regime.calls:
            for flag in set(flags) & set(_PERTURBATIONS):
                joint.perturb(*_PERTURBATIONS[flag])
            call = dict(options, degradation=DegradationReport())
            if "budget" in flags:
                call["budget_pages"] = budget
            if "expired" in flags:
                call["deadline"] = expired_deadline()
            spans = len(recorder.spans)
            counters = dict(recorder.profile()["metrics"]["counters"])
            tally = (work.priced, work.moves)
            result = joint.optimize(**call)
    joints = [
        span["args"] for span in recorder.spans[spans:] if span["name"] == "multipath.joint"
    ]
    assert len(joints) <= 1
    increments = {
        key: value - counters.get(key, 0)
        for key, value in recorder.profile()["metrics"]["counters"].items()
    }
    return (
        result,
        call["degradation"],
        joints[0] if joints else None,
        increments,
        (work.priced - tally[0], work.moves - tally[1]),
    )


class TestRegimeContract:
    """Which joint stage answers each regime, and what it reports: the
    ``multipath.joint`` span and its notes, ``exact``, the degradations in
    order and the degradation counters."""

    @pytest.mark.parametrize("name", sorted(REGIMES))
    def test_regime(self, name, monkeypatch):
        regime = REGIMES[name]
        result, report, joint, increments, _ = observe_regime(regime, monkeypatch)
        assert result.exact == regime.exact
        assert result.degradations == regime.degradations
        assert [event.describe() for event in report.events] == [
            f"[multipath] {entry}" for entry in regime.degradations
        ]
        for action in _ACTIONS:
            key = metric_key(
                "resilience.degradations", {"layer": "multipath", "action": action}
            )
            assert increments.get(key, 0) == report.count(
                layer="multipath", action=action
            )
        if regime.combinations is None:
            assert joint is None
            return
        *_, (priced, moves) = observe_regime(regime, monkeypatch, scans=True)
        if regime.exact:
            assert priced == moves == 0
        assert joint == {
            "combinations": regime.combinations,
            "budgeted": regime.budgeted,
            "priced": priced,
            "moves": moves,
        }


_KEYS = [
    mp.SharedIndexKey(steps=(("C", f"a{index}"),), organization=organization)
    for index in range(5)
    for organization in (IndexOrganization.MX, IndexOrganization.NIX)
]
_PLACEHOLDER = IndexConfiguration.whole_path(1, IndexOrganization.MX)
# Sums of these few halves are exact in binary floating point, so the
# per-trial prices and the deltas agree bit for bit and every tie is a
# true tie on both sides.
_EXACT_PRICES = st.sampled_from([0.0, 0.5, 1.0, 2.5, 4.0, 40.0])
_PRICES = st.one_of(
    _EXACT_PRICES, st.floats(min_value=0.0, max_value=1e5, allow_nan=False)
)


@st.composite
def swap_landscapes(draw, prices=_PRICES):
    """Small random candidate sets, a selection and a sequence of moves.

    The second path may be an equal copy of the first, as in a fleet
    that lists one path twice.
    """
    candidate_sets = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        candidates = []
        for _ in range(draw(st.integers(min_value=1, max_value=5))):
            keys = draw(
                st.lists(st.sampled_from(_KEYS), min_size=1, max_size=4, unique=True)
            )
            candidates.append(
                mp._Candidate(
                    configuration=_PLACEHOLDER,
                    query_cost=draw(prices),
                    maintenance={key: draw(prices) for key in keys},
                    storage={key: float(draw(st.integers(0, 500))) for key in keys},
                )
            )
        candidate_sets.append(candidates)
    if len(candidate_sets) > 1 and draw(st.booleans()):
        candidate_sets[1] = [replace(candidate) for candidate in candidate_sets[0]]
    choice = [
        draw(st.integers(min_value=0, max_value=len(candidates) - 1))
        for candidates in candidate_sets
    ]
    moves = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=len(candidate_sets) - 1),
                st.integers(min_value=0, max_value=4),
            ),
            max_size=5,
        )
    )
    return candidate_sets, choice, moves


def assert_deltas_match_joint_prices(candidate_sets, pricer):
    selection = mp._chosen(candidate_sets, pricer.choice)
    cost = mp._joint_cost(tuple(selection))[0]
    storage = mp._joint_storage(tuple(selection))
    for path, candidates in enumerate(candidate_sets):
        cost_deltas, storage_deltas = pricer.deltas(path)
        for index, candidate in enumerate(candidates):
            trial = list(selection)
            trial[path] = candidate
            assert cost_deltas[index] == pytest.approx(
                mp._joint_cost(tuple(trial))[0] - cost,
                rel=0,
                abs=1e-9 * max(1.0, abs(cost)),
            )
            assert storage_deltas[index] == pytest.approx(
                mp._joint_storage(tuple(trial)) - storage,
                rel=0,
                abs=1e-9 * max(1.0, abs(storage)),
            )


class TestSwapDeltas:
    @settings(max_examples=150, deadline=None)
    @given(swap_landscapes())
    def test_deltas_equal_joint_price_differences(self, landscape):
        candidate_sets, choice, moves = landscape
        pricer = mp._SwapPricer(candidate_sets)
        pricer.reset(choice)
        assert_deltas_match_joint_prices(candidate_sets, pricer)
        for path, index in moves:
            pricer.move(path, index % len(candidate_sets[path]))
            assert_deltas_match_joint_prices(candidate_sets, pricer)
        assert pricer.moves == len(moves)

    @settings(max_examples=150, deadline=None)
    @given(swap_landscapes(prices=_EXACT_PRICES))
    def test_moves_equal_the_reference_scans(self, landscape):
        """On exact prices, each sweep rank's best move (ties included)
        and each descent end in the reference's picks."""
        candidate_sets, choice, _ = landscape
        selection = mp._chosen(candidate_sets, choice)
        cost = mp._joint_cost(tuple(selection))[0]
        storage = mp._joint_storage(tuple(selection))
        pricer = mp._SwapPricer(candidate_sets)
        work = reference.Work()
        for rank, reference_rank in (
            (mp._shrink_rank, reference.shrink_rank),
            (mp._benefit_rank, reference.benefit_rank),
        ):
            pricer.reset(choice)
            expected = reference.best_swap(
                candidate_sets, selection, reference_rank(cost, storage), work
            )
            if expected is not None:
                _, path, candidate, _, _ = expected
                expected = (path, [c is candidate for c in candidate_sets[path]].index(True))
            assert mp._best_move(pricer, rank) == expected
        descended = mp._chosen(candidate_sets, mp._descend(pricer, choice))
        expected = reference.descend(candidate_sets, selection, work)
        assert all(map(operator.is_, descended, expected))


class TestExhaustiveWalk:
    @settings(max_examples=150, deadline=None)
    @given(swap_landscapes(prices=_EXACT_PRICES), st.data())
    def test_walk_equals_the_reference_loops(self, landscape, data):
        """On exact prices (true ties, duplicated paths), the merged walk
        returns the two reference loops' selections by identity, and
        their error text when nothing fits the budget."""
        candidate_sets, choice, _ = landscape
        # One selection's own footprint puts the budget on a boundary.
        footprint = mp._joint_storage(tuple(mp._chosen(candidate_sets, choice)))
        budget = data.draw(
            st.one_of(
                st.sampled_from([None, 0.0, footprint, float("inf")]),
                st.integers(min_value=0, max_value=2000).map(float),
            )
        )
        if budget is None:
            cheapest, _ = reference.select_exact(candidate_sets)
            expected = (cheapest, cheapest)
        else:
            try:
                expected = reference.select_budgeted_exact(candidate_sets, budget)
            except OptimizerError as error:
                with pytest.raises(OptimizerError) as raised:
                    mp._exhaustive(candidate_sets, budget)
                assert str(raised.value) == str(error)
                return
        walked = mp._exhaustive(candidate_sets, budget)
        for selection, reference_selection in zip(walked, expected, strict=True):
            assert len(selection) == len(reference_selection)
            assert all(map(operator.is_, selection, reference_selection))
