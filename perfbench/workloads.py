"""The four seeded workloads: their inputs, timed loops and oracles.

Every workload is a closed loop with one client and no think time. All
inputs derive from the run seed through string-seeded
:class:`random.Random` instances, so a seed always yields the same
inputs and the program only ever sees the generated objects. Input
generation and the oracle checks run outside the timed region.

A workload object offers:

* ``prepare(seed)`` — generate the run's inputs;
* ``fresh_inputs(rep)`` / ``build(inputs)`` — new program objects plus
  one warm-up operation; ``build`` is what set-up time measures;
* ``run(driver, outcome, seconds=..., count=..., tracer=...)`` — the
  operations, timed one by one: for ``seconds`` of busy time, or exactly
  the first ``count`` of them again (the traced run), each under a root
  span when a tracer is given;
* ``verify(outcome)`` — the oracles that are too slow to run inline;
* ``traced_counts()`` — per-layer counts read from the traced run.
"""

from __future__ import annotations

import contextlib
import math
import random
import time

from measure import Outcome
from repro import (
    ClassStats,
    ContinuousAdvisor,
    PathStatistics,
    PathWorkload,
    WorkloadGenerator,
    advise,
    generate_trace,
    optimize_multipath,
)
from repro.core.advisor import EXHAUSTIVE_BASELINE_MAX_LENGTH
from repro.costmodel.subpath import subpath_processing_cost
from repro.model.path import Path
from repro.organizations import EXTENDED_ORGANIZATIONS
from repro.paper import EX51_EXPECTED, figure7_load, figure7_statistics
from repro.synth import LevelSpec, linear_path_schema

#: Relative tolerance for comparing costs summed in different orders.
COST_TOLERANCE = 1e-9

#: The generator parameters of :func:`make_world`, printed with each run.
WORLD = (
    "linear path; equal thirds of positions with 0/1/2 subclasses; a "
    "quarter set-valued (fan-out 1.5-3); 2e4-2e5 objects decaying 1.5-4x "
    "per level; WorkloadGenerator.mixed load, query:update 2:1"
)


def _rng(seed: int, *parts) -> random.Random:
    """A generator seeded by the run seed and a role; stable across runs."""
    return random.Random(":".join(str(part) for part in (seed, *parts)))


def _root(tracer, name: str, index: int):
    """The root span of operation ``index``; nothing when untraced."""
    if tracer is None:
        return contextlib.nullcontext()
    tracer.request = index
    return tracer.span(name)


def _close(left: float, right: float) -> bool:
    return abs(left - right) <= COST_TOLERANCE * max(1.0, abs(left), abs(right))


def make_world(rng: random.Random, length: int):
    """A linear path with its statistics and a mixed query/update load.

    The positions with 0, 1 and 2 subclasses come in equal thirds in a
    seeded order, so every seed prices the same number of classes at a
    given length; cardinality decay, fan-outs of set-valued levels and
    the load are drawn from ``rng``.
    """
    subclasses = [position % 3 for position in range(length)]
    rng.shuffle(subclasses)
    levels = [
        LevelSpec(
            f"L{index}",
            subclasses=subclasses[index],
            multi_valued=rng.random() < 0.25,
        )
        for index in range(length)
    ]
    _schema, path = linear_path_schema(levels)
    per_class = {}
    objects = rng.uniform(2e4, 2e5)
    for position, spec in enumerate(levels, start=1):
        for name in path.hierarchy_at(position):
            share = 1.0 if name == spec.name else rng.uniform(0.1, 0.5)
            count = max(50, round(objects * share))
            fanout = rng.uniform(1.5, 3.0) if spec.multi_valued else 1.0
            distinct = max(10, round(count * fanout / rng.uniform(2.0, 10.0)))
            per_class[name] = ClassStats(
                objects=count, distinct=distinct, fanout=fanout
            )
        objects = max(100.0, objects / rng.uniform(1.5, 4.0))
    stats = PathStatistics(path, per_class)
    load = WorkloadGenerator(rng.randrange(2**31)).mixed(
        path, query_weight=2.0, update_weight=1.0
    )
    return stats, load


def make_fleet(rng: random.Random, chain_length: int, paths: int):
    """``paths`` overlapping suffix paths of one linear chain, longest first.

    Cardinalities vary over narrow ranges: compounded over the chain, a
    wide per-level decay would change a fleet's index footprint, and so
    how hard a fixed budget binds, several times over.
    """
    levels = [LevelSpec(f"L{index}") for index in range(chain_length)]
    schema, full_path = linear_path_schema(levels)
    per_class = {}
    objects = rng.uniform(1.5e5, 2.5e5)
    for position in range(1, chain_length + 1):
        count = round(objects)
        per_class[full_path.class_at(position)] = ClassStats(
            objects=count, distinct=max(10, round(count / rng.uniform(3.0, 6.0)))
        )
        objects = max(100.0, objects / rng.uniform(1.35, 1.45))
    fleet = []
    for start in range(paths):
        path = full_path
        if start:
            path = Path.parse(
                schema,
                ".".join(
                    [f"L{start}"]
                    + [f"ref{index}" for index in range(start + 1, chain_length)]
                    + ["label"]
                ),
            )
        stats = PathStatistics(path, {name: per_class[name] for name in path.scope})
        load = WorkloadGenerator(rng.randrange(2**31)).mixed(
            path, query_weight=2.0, update_weight=1.0
        )
        fleet.append(PathWorkload(stats=stats, load=load))
    return fleet


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------
def check_report(report) -> list[str]:
    """Problems with one ``advise`` answer, against its own baselines."""
    problems = []
    optimal = report.optimal
    length = report.stats.length
    if optimal.extras.get("degraded"):
        problems.append(f"degraded answer ({optimal.extras.get('rung')})")
    if optimal.configuration.length != length:
        problems.append("the configuration does not cover the path")
    priced = sum(
        report.matrix.cost(part.start, part.end, part.organization)
        for part in optimal.configuration.assignments
    )
    if not _close(priced, optimal.cost):
        problems.append(f"cost {optimal.cost!r} but the matrix prices {priced!r}")
    if report.dynprog is None or not _close(report.dynprog.cost, optimal.cost):
        problems.append("optimal cost differs from the dynamic program")
    if length <= EXHAUSTIVE_BASELINE_MAX_LENGTH and (
        report.exhaustive is None
        or not _close(report.exhaustive.cost, optimal.cost)
    ):
        problems.append("optimal cost differs from exhaustive enumeration")
    return problems


def check_entries(stats, load, entries) -> list[str]:
    """Matrix entries that differ from the scalar cost model, bit for bit."""
    problems = []
    for start, end, organization, value in entries:
        expected = subpath_processing_cost(
            stats, load, start, end, organization
        ).total
        if value != expected:
            problems.append(
                f"entry ({start}, {end}, {organization}) is {value!r}, "
                f"the scalar model gives {expected!r}"
            )
    return problems


def check_figure7() -> list[str]:
    """Example 5.1: the Figure 7 input reproduces the paper's answer."""
    report = advise(figure7_statistics(), figure7_load())
    problems = check_report(report)
    optimal = report.optimal
    if optimal.configuration.partition() != EX51_EXPECTED["optimal_partition"]:
        problems.append("Figure 7: wrong optimal partition")
    organizations = tuple(
        part.organization for part in optimal.configuration.assignments
    )
    if organizations != EX51_EXPECTED["optimal_organizations"]:
        problems.append("Figure 7: wrong optimal organizations")
    if optimal.evaluated >= EX51_EXPECTED["total_configurations"]:
        problems.append("Figure 7: branch and bound pruned nothing")
    return problems


def check_step(step) -> list[str]:
    """A re-advise step must come from the exact search."""
    return [] if step.rung == "exact" else [f"step {step.index} rung {step.rung}"]


def check_replay_state(stats, load, result) -> list[str]:
    """A re-advise answer equals a fresh DP advise on the same inputs."""
    fresh = advise(
        stats, load, strategy="dynamic_program", workers=0, run_baselines=False
    ).optimal
    problems = []
    if fresh.cost != result.cost:
        problems.append(f"re-advise cost {result.cost!r}, fresh {fresh.cost!r}")
    if fresh.configuration != result.configuration:
        problems.append("re-advise configuration differs from a fresh advise")
    return problems


def check_multipath(result, fleet, budget: float) -> list[str]:
    """Budget respected, never cheaper than unconstrained, valid partitions."""
    problems = [f"degraded: {entry}" for entry in result.degradations]
    if result.storage_pages > budget * (1.0 + COST_TOLERANCE):
        problems.append(f"{result.storage_pages} pages over the {budget} budget")
    if result.unconstrained_cost is None or (
        result.total_cost < result.unconstrained_cost
        and not _close(result.total_cost, result.unconstrained_cost)
    ):
        problems.append("budgeted cost below the unconstrained cost")
    for configuration, workload in zip(result.configurations, fleet):
        if configuration.length != workload.stats.length:
            problems.append(f"configuration does not partition {workload.stats.path}")
    if len(result.configurations) != len(fleet):
        problems.append("not one configuration per path")
    return problems


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class AdviseWorkload:
    """``advise`` requests, each on a new world of one path length.

    A single length keeps every request in one cluster of times, so the
    median and the tail of a run do not jump between clusters when runs
    complete different numbers of requests.
    """

    root = "advisor.advise"
    length = 0
    options: dict = {}
    #: Matrix entries per request re-priced by the scalar oracle.
    sampled_entries = 2

    def prepare(self, seed: int) -> None:
        self.seed = seed
        self.samples: list[tuple[int, list]] = []

    def params(self) -> dict:
        return {
            "length": self.length,
            "options": dict(self.options),
            "world": WORLD,
        }

    def request(self, index: int):
        return make_world(_rng(self.seed, "request", index), self.length)

    def fresh_inputs(self, rep: int):
        return make_world(_rng(self.seed, "warmup", rep), self.length)

    def build(self, inputs) -> None:
        advise(*inputs, **self.options)

    def run(self, driver, outcome: Outcome, *, seconds=None, count=None,
            tracer=None) -> None:
        perf = time.perf_counter
        spent = 0.0
        index = 0
        while index < count if count is not None else spent < seconds:
            stats, load = self.request(index)
            with _root(tracer, self.root, index):
                started = perf()
                report = advise(stats, load, **self.options)
                elapsed = perf() - started
            spent += elapsed
            outcome.record(elapsed, answer=True)
            if count is None:
                outcome.check(check_report(report))
                self.samples.append((index, self._sample(index, report)))
            index += 1

    def _sample(self, index: int, report) -> list:
        rng = _rng(self.seed, "entries", index)
        matrix = report.matrix
        rows = matrix.rows()
        entries = []
        for _ in range(self.sampled_entries):
            start, end = rows[rng.randrange(len(rows))]
            organization = rng.choice(matrix.organizations)
            entries.append(
                (start, end, organization, matrix.cost(start, end, organization))
            )
        return entries

    def verify(self, outcome: Outcome) -> None:
        for index, entries in self.samples:
            stats, load = self.request(index)
            outcome.check(check_entries(stats, load, entries))

    def traced_counts(self) -> dict:
        return {}


class AdvisePaper(AdviseWorkload):
    name = "advise-paper"
    why = (
        "default advise (branch and bound plus exhaustive and DP baselines) "
        "on fresh length-13 paths: search dominates, the kernel fold does "
        "not"
    )
    length = 13
    options: dict = {}

    def verify(self, outcome: Outcome) -> None:
        super().verify(outcome)
        outcome.extra_ops += 1
        outcome.check(check_figure7())


class AdviseLong(AdviseWorkload):
    name = "advise-long"
    why = (
        "DP advise on fresh length-64 paths: the kernel fold dominates, run "
        "by the automatic 2-worker pool"
    )
    # Past the automatic pool threshold of 1830 rows (length 60).
    length = 64
    options = {"strategy": "dynamic_program"}
    sampled_entries = 1


class ReplayDrift:
    """``ContinuousAdvisor.push`` over a seeded trace, cycled; then ``flush``.

    Query drift anywhere on the path dirties every matrix row on every
    re-advise. Count windows ignore timestamps, so the trace is replayed
    from its start whenever it runs out.
    """

    name = "replay-drift"
    why = (
        "ContinuousAdvisor push of a query-heavy mixed_drift trace on a "
        "length-60 path: every re-advise dirties every row, so the fold "
        "and recompute assembly dominate"
    )
    root = "trace.push"
    length = 60
    events = 20_000
    window = 250
    threshold = 0.25
    hysteresis = 2
    regime = "mixed_drift"
    trace_options = {"query_weight": 2.0, "update_weight": 1.0}
    #: Re-advise steps kept (uniformly, by reservoir) for the fresh-advise oracle.
    sampled_steps = 3

    def prepare(self, seed: int) -> None:
        self.seed = seed
        stats, _load = self.fresh_inputs(0)
        self.trace = generate_trace(
            stats.path,
            self.regime,
            self.events,
            seed=_rng(seed, "trace").randrange(2**31),
            **self.trace_options,
        )
        self.samples: list = []
        self._steps_seen = 0
        self._sampler = _rng(seed, "steps")
        self.pushes = None
        self.final = None

    def params(self) -> dict:
        return {
            "length": self.length,
            "world": WORLD,
            "regime": self.regime,
            "events": self.events,
            "trace_options": dict(self.trace_options),
            "window": self.window,
            "threshold": self.threshold,
            "hysteresis": self.hysteresis,
        }

    def fresh_inputs(self, rep: int):
        # Every build replays the same world, as new objects, so no
        # lowering cached on an earlier build's statistics is reused.
        return make_world(_rng(self.seed, "world"), self.length)

    def build(self, inputs) -> ContinuousAdvisor:
        stats, load = inputs
        return ContinuousAdvisor(
            stats,
            load,
            window=self.window,
            threshold=self.threshold,
            hysteresis=self.hysteresis,
        )

    def run(self, advisor, outcome: Outcome, *, seconds=None, count=None,
            tracer=None) -> None:
        """Pushes for ``seconds`` of busy time, then the final flush.

        With ``count`` the same sequence is cut after ``count``
        operations; the flush is the operation after the last push.
        """
        perf = time.perf_counter
        trace = self.trace
        size = len(trace)
        spent = 0.0
        index = 0
        while (
            index < min(count, self.pushes) if count is not None
            else spent < seconds
        ):
            event = trace[index % size]
            with _root(tracer, "trace.push", index) as span:
                started = perf()
                step = advisor.push(event)
                elapsed = perf() - started
                if span is not None:
                    span.note(readvise=step is not None)
            spent += elapsed
            outcome.record(elapsed, answer=step is not None)
            if step is not None and count is None:
                outcome.check(check_step(step))
                self._keep(advisor, step)
            index += 1
        if count is None:
            self.pushes = index
        if count is None or count > self.pushes:
            self._flush(advisor, outcome, tracer)
        if count is None:
            self.final = (
                advisor.session.stats,
                advisor.session.load,
                advisor.steps[-1].result,
            )
        if tracer is not None:
            self.traced_fire_ratio = advisor.readvise_count / max(
                1, advisor.windows_seen
            )

    def _flush(self, advisor, outcome: Outcome, tracer) -> None:
        perf = time.perf_counter
        with _root(tracer, "trace.flush", self.pushes):
            started = perf()
            step = advisor.flush()
            elapsed = perf() - started
        outcome.record(elapsed, answer=step is not None)
        if step is not None:
            outcome.check(check_step(step))

    def _keep(self, advisor, step) -> None:
        self._steps_seen += 1
        state = (advisor.session.stats, advisor.session.load, step.result)
        if len(self.samples) < self.sampled_steps:
            self.samples.append(state)
            return
        slot = self._sampler.randrange(self._steps_seen)
        if slot < self.sampled_steps:
            self.samples[slot] = state

    def verify(self, outcome: Outcome) -> None:
        for state in [*self.samples, self.final]:
            outcome.check(check_replay_state(*state))

    def traced_counts(self) -> dict:
        return {"trace.fire_ratio": self.traced_fire_ratio}


class MultipathBudget:
    """Budgeted joint selection, each call on a new fleet of overlapping paths.

    Set-up prices one reference fleet without a budget; every call gets
    a seeded fraction of that footprint as its storage budget. All fleets
    share the chain's shape, and the ``NONE`` organization keeps any
    budget feasible. Each call builds its fleet anew, so no lowering is
    ever reused across calls.
    """

    name = "multipath-budget"
    why = (
        "optimize_multipath on fresh fleets of 8 overlapping suffix paths "
        "under a storage budget: the only run of candidate generation and "
        "joint selection"
    )
    root = "multipath.optimize_multipath"
    # Every suffix path keeps at least 11 positions: shorter ones would
    # enumerate their unbudgeted candidates exactly, which is exponential.
    chain_length = 18
    paths = 8
    fractions = (0.2, 0.3)

    def prepare(self, seed: int) -> None:
        self.seed = seed
        reference = optimize_multipath(
            self._fleet("reference"), organizations=EXTENDED_ORGANIZATIONS
        )
        self.budget = reference.storage_pages * _rng(seed, "fraction").uniform(
            *self.fractions
        )
        self.budget_use: list[float] = []

    def params(self) -> dict:
        return {
            "chain_length": self.chain_length,
            "paths": self.paths,
            "budget": f"seeded fraction {list(self.fractions)} of a "
            "reference fleet's unconstrained footprint",
            "organizations": "EXTENDED_ORGANIZATIONS",
            "fleet": "objects 1.5e5-2.5e5 decaying 1.35-1.45x per level; "
            "WorkloadGenerator.mixed load per path, query:update 2:1",
        }

    def _fleet(self, *role):
        return make_fleet(
            _rng(self.seed, "fleet", *role), self.chain_length, self.paths
        )

    def _operation(self, index: int):
        return self._fleet(index), self.budget

    def fresh_inputs(self, rep: int):
        return self._fleet("warmup", rep), self.budget

    def build(self, inputs) -> None:
        fleet, budget = inputs
        optimize_multipath(
            fleet, organizations=EXTENDED_ORGANIZATIONS, budget_pages=budget
        )

    def run(self, driver, outcome: Outcome, *, seconds=None, count=None,
            tracer=None) -> None:
        perf = time.perf_counter
        spent = 0.0
        index = 0
        while index < count if count is not None else spent < seconds:
            fleet, budget = self._operation(index)
            with _root(tracer, self.root, index):
                started = perf()
                result = optimize_multipath(
                    fleet, organizations=EXTENDED_ORGANIZATIONS,
                    budget_pages=budget,
                )
                elapsed = perf() - started
            if tracer is not None:
                self.budget_use.append(result.storage_pages / budget)
            spent += elapsed
            outcome.record(elapsed, answer=True)
            if count is None:
                outcome.check(check_multipath(result, fleet, budget))
            index += 1

    def verify(self, outcome: Outcome) -> None:
        """Every check of this workload is cheap enough to run inline."""

    def traced_counts(self) -> dict:
        return {
            "multipath.budget_use": math.fsum(self.budget_use)
            / max(1, len(self.budget_use))
        }


WORKLOADS = {
    workload.name: workload
    for workload in (
        AdvisePaper, AdviseLong, ReplayDrift, MultipathBudget
    )
}
