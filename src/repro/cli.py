"""Command-line interface.

::

    python -m repro advise    SPEC.json [--trace] [--noindex] [--strategy NAME]
                              [--workers N] [--json] [--profile FILE] [--stats]
    python -m repro matrix    SPEC.json [--workers N]
    python -m repro multipath SPEC.json [SPEC2.json ...] [--beam-width N]
                              [--budget-pages P] [--per-row-organizations R]
                              [--restarts N] [--noindex] [--workers N]
                              [--json] [--profile FILE] [--stats]
    python -m repro whatif    SPEC.json [--steps STEPS.json]
                              [--perturb CLASS:COMP*F | CLASS:COMP=V ...]
                              [--noindex] [--strategy NAME] [--workers N]
                              [--json] [--profile FILE] [--stats]
    python -m repro trace     SPEC.json [--regime NAME] [--events N] [--seed S]
                              [--edge-share F] [--out FILE]
    python -m repro replay    SPEC.json --trace FILE [--window N] [--slide N]
                              [--window-seconds T] [--slide-seconds T]
                              [--threshold X|auto] [--hysteresis K]
                              [--rate-scale S] [--track-stats]
                              [--checkpoint FILE [--resume]] [--deadline-ms T]
                              [--on-error raise|skip|collect] [--noindex]
                              [--strategy NAME] [--workers N]
                              [--json] [--profile FILE] [--stats]
    python -m repro example                  # print a template spec
    python -m repro paper     [--trace]      # reproduce Example 5.1
    python -m repro measure   [--layout btree|hash] [--check] [--threshold X]
                              [--report FILE] [--json] [--profile FILE] [--stats]
    python -m repro measure   --scenario NAME [--layout btree|hash]
                              [--trace FILE | --regime NAME --events N]
                              [--seed S] [--json] [--profile FILE] [--stats]

``SPEC.json`` is the advisor-spec document described in :mod:`repro.io`;
``multipath`` takes one spec per path and selects their configurations
jointly (shared physical indexes are maintained and stored once);
``whatif`` drives an incremental :class:`~repro.whatif.AdvisorSession`
through a perturbation sequence and reports per-step cost and
configuration changes; ``trace`` generates a seeded synthetic operation
stream (JSONL) for the spec's path, and ``replay`` feeds such a stream
through a windowed, drift-detected
:class:`~repro.trace.ContinuousAdvisor` and prints the re-advise
timeline. ``measure`` is the ground-truth side: it runs the
:mod:`repro.backend` calibration suite (with ``--check`` as the CI
accuracy guard) or, with ``--scenario``, replays a trace against real
page structures and prints measured I/O beside the analytic predictions.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core.advisor import DEFAULT_STRATEGY, AdvisorReport, advise
from repro.core.configuration import IndexConfiguration
from repro.core.cost_matrix import CostMatrix
from repro.core.multipath import (
    DEFAULT_RESTARTS,
    PathWorkload,
    optimize_multipath,
    validate_selection_options,
)
from repro.errors import ReproError
from repro.io import AdvisorSpec, load_spec, spec_to_dict
from repro.model.path import Path
from repro.obs import Recorder, stats_table, write_profile
from repro.organizations import CONFIGURABLE_ORGANIZATIONS
from repro.reporting.tables import multipath_table, replay_table, whatif_table
from repro.search import available_strategies
from repro.trace import (
    TRACE_REGIMES,
    ContinuousAdvisor,
    TraceReadReport,
    generate_trace,
    iter_trace,
    write_trace,
)
from repro.whatif import (
    DEFAULT_SESSION_STRATEGY,
    AdvisorSession,
    Perturbation,
    parse_steps,
)


def _pipeline_options(
    spec: AdvisorSpec, arguments: argparse.Namespace
) -> dict:
    """The cost-matrix options of one run: the spec's and the flags'.

    ``--noindex`` adds the zero-storage NONE fallback on top of the
    spec's own ``include_noindex``; ``recorder`` is the one :func:`main`
    made for ``--profile``/``--stats`` (``None`` without them).
    """
    return dict(
        organizations=spec.organizations or CONFIGURABLE_ORGANIZATIONS,
        include_noindex=spec.include_noindex
        or getattr(arguments, "noindex", False),
        range_selectivity=spec.range_selectivity,
        workers=arguments.workers,
        recorder=arguments.recorder,
    )


def _configuration_json(
    path: Path, configuration: IndexConfiguration
) -> list[dict]:
    """A configuration's parts as JSON objects, in path order."""
    return [
        {
            "subpath": str(path.subpath(a.start, a.end)),
            "start": a.start,
            "end": a.end,
            "organization": str(a.organization),
        }
        for a in configuration.assignments
    ]


def _step_json(path: Path, step, **fields) -> dict:
    """A what-if or replay step as JSON: ``fields`` plus the shared keys."""
    report = step.report
    return {
        "step": step.index,
        **fields,
        "mode": report.mode if report else None,
        "rows_recomputed": len(report.recomputed_rows) if report else None,
        "rows_patched": len(report.patched_rows) if report else None,
        "cost": step.cost,
        "configuration_changed": step.configuration_changed,
        "configuration": _configuration_json(path, step.result.configuration),
    }


def _print_report(report: AdvisorReport, trace: bool) -> None:
    """An advisor report, then the search trace when ``trace`` is set."""
    print(report.render())
    if trace:
        print()
        for line in report.optimal.trace:
            print("  " + line)


def _cmd_advise(arguments: argparse.Namespace) -> int:
    spec = load_spec(arguments.spec)
    report = advise(
        spec.stats,
        spec.load,
        **_pipeline_options(spec, arguments),
        keep_trace=arguments.trace,
        strategy=arguments.strategy,
    )
    if arguments.json:
        path = spec.stats.path
        payload = {
            "path": str(path),
            "strategy": report.optimal.strategy,
            "optimal": {
                "configuration": _configuration_json(
                    path, report.optimal.configuration
                ),
                "cost": report.optimal.cost,
                "evaluated": report.optimal.evaluated,
                "pruned": report.optimal.pruned,
            },
            "single_index_costs": {
                str(org): cost for org, cost in report.single_index_costs.items()
            },
        }
        print(json.dumps(payload, indent=2))
    else:
        _print_report(report, arguments.trace)
    return 0


def _cmd_matrix(arguments: argparse.Namespace) -> int:
    spec = load_spec(arguments.spec)
    matrix = CostMatrix.compute(
        spec.stats, spec.load, **_pipeline_options(spec, arguments)
    )
    print(matrix.render(spec.stats.path))
    return 0


def _cmd_multipath(arguments: argparse.Namespace) -> int:
    # Fail on bad flags before the expensive matrix computations.
    validate_selection_options(
        arguments.per_row_organizations,
        arguments.beam_width,
        arguments.budget_pages,
        arguments.restarts,
    )
    specs = [load_spec(spec_path) for spec_path in arguments.specs]
    workloads = [PathWorkload(stats=spec.stats, load=spec.load) for spec in specs]
    # Each matrix honours its own spec's options; --noindex adds the
    # zero-storage NONE fallback to every path's organizations, which
    # keeps tight --budget-pages runs feasible.
    matrices = [
        CostMatrix.compute(
            spec.stats, spec.load, **_pipeline_options(spec, arguments)
        )
        for spec in specs
    ]
    result = optimize_multipath(
        workloads,
        per_row_organizations=arguments.per_row_organizations,
        matrices=matrices,
        beam_width=arguments.beam_width,
        budget_pages=arguments.budget_pages,
        restarts=arguments.restarts,
        recorder=arguments.recorder,
    )
    paths = [spec.stats.path for spec in specs]
    if arguments.json:
        payload = {
            "paths": [
                {
                    "path": str(path),
                    "configuration": _configuration_json(
                        path, result.configurations[index]
                    ),
                }
                for index, path in enumerate(paths)
            ],
            "total_cost": result.total_cost,
            "independent_cost": result.independent_cost,
            "shared_savings": result.shared_savings,
            "storage_pages": result.storage_pages,
            "budget_pages": result.budget_pages,
            "unconstrained_cost": result.unconstrained_cost,
            "exact": result.exact,
        }
        print(json.dumps(payload, indent=2))
    else:
        # The table already carries the per-path configurations and the
        # joint/independent/savings/storage/budget summary.
        print(multipath_table(paths, result))
    return 0


def _cmd_whatif(arguments: argparse.Namespace) -> int:
    spec = load_spec(arguments.spec)
    perturbations: list[Perturbation] = []
    if arguments.steps:
        with open(arguments.steps, "r", encoding="utf-8") as handle:
            try:
                document = json.load(handle)
            except json.JSONDecodeError as error:
                raise ReproError(
                    f"invalid JSON in {arguments.steps}: {error}"
                ) from None
        perturbations.extend(parse_steps(document))
    perturbations.extend(
        Perturbation.parse(text) for text in arguments.perturb
    )
    if not perturbations:
        raise ReproError(
            "no perturbations given (use --steps FILE and/or "
            "--perturb CLASS:COMPONENT*FACTOR)"
        )
    session = AdvisorSession(
        spec.stats,
        spec.load,
        **_pipeline_options(spec, arguments),
        strategy=arguments.strategy,
    )
    steps = session.run(perturbations)
    path = spec.stats.path
    if arguments.json:
        payload = {
            "path": str(path),
            "strategy": arguments.strategy,
            "steps": [
                _step_json(
                    path,
                    step,
                    perturbation=step.description,
                    kernel_slice_rows=(
                        step.report.kernel_slice_rows if step.report else None
                    ),
                    kernel_fallback_reason=(
                        step.report.kernel_fallback_reason
                        if step.report
                        else None
                    ),
                )
                for step in steps
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(whatif_table(path, steps, title=f"what-if over {path}"))
        changes = sum(1 for step in steps if step.configuration_changed)
        print(
            f"\n{len(steps) - 1} steps, {changes} configuration changes, "
            f"final cost {steps[-1].cost:.2f}"
        )
    return 0


def _cmd_trace(arguments: argparse.Namespace) -> int:
    spec = load_spec(arguments.spec)
    events = generate_trace(
        spec.stats.path,
        arguments.regime,
        arguments.events,
        seed=arguments.seed,
        edge_share=arguments.edge_share,
    )
    if arguments.out:
        count = write_trace(events, arguments.out)
        print(f"{count} events ({arguments.regime}) written to {arguments.out}")
    else:
        for event in events:
            print(json.dumps(event.to_dict(), separators=(",", ":")))
    return 0


def _cmd_replay(arguments: argparse.Namespace) -> int:
    spec = load_spec(arguments.spec)
    threshold: float | str = arguments.threshold
    if threshold != "auto":
        try:
            threshold = float(threshold)
        except ValueError:
            raise ReproError(
                "--threshold must be a number or 'auto', "
                f"got {arguments.threshold!r}"
            ) from None
    window = arguments.window
    if window is None and arguments.window_seconds is None:
        window = 200
    session_options = dict(
        **_pipeline_options(spec, arguments), strategy=arguments.strategy
    )
    if arguments.resume:
        if not arguments.checkpoint:
            raise ReproError("--resume requires --checkpoint FILE")
        from repro.resilience import restore_advisor

        advisor = restore_advisor(
            arguments.checkpoint, spec.stats, spec.load, **session_options
        )
    else:
        advisor = ContinuousAdvisor(
            spec.stats,
            spec.load,
            window=window,
            slide=arguments.slide,
            window_seconds=arguments.window_seconds,
            slide_seconds=arguments.slide_seconds,
            rate_scale=arguments.rate_scale,
            track_statistics=arguments.track_stats,
            threshold=threshold,
            hysteresis=arguments.hysteresis,
            deadline_ms=arguments.deadline_ms,
            **session_options,
        )
    read_report = TraceReadReport()
    steps = advisor.replay(
        iter_trace(
            arguments.trace,
            on_error=arguments.on_error,
            report=read_report,
        )
    )
    if arguments.checkpoint:
        from repro.resilience import save_advisor

        save_advisor(advisor, arguments.checkpoint)
    path = spec.stats.path
    if arguments.json:
        payload = {
            "path": str(path),
            "strategy": arguments.strategy,
            "window": window,
            "window_seconds": arguments.window_seconds,
            "window_mode": advisor.aggregator.mode,
            "events": advisor.events_seen,
            "windows": advisor.windows_seen,
            "windows_held": advisor.windows_held,
            "lines_skipped": read_report.skipped_lines,
            "skip_messages": [
                message
                for _number, message in read_report.skipped
                if message
            ],
            "degradations": advisor.degradation.to_dicts(),
            "steps": [
                _step_json(
                    path,
                    step,
                    window=step.window,
                    forced=step.forced,
                    rung=step.rung,
                    events_seen=step.events_seen,
                    change=step.change,
                    perturbations=step.perturbations,
                )
                for step in steps
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(replay_table(path, steps, title=f"trace replay over {path}"))
        print(f"\n{advisor.describe()}")
        if read_report.skipped:
            print(f"trace read: {read_report.describe()}")
        if advisor.degradation:
            print("degradations:")
            for line in advisor.degradation.describe().splitlines():
                print(f"  {line}")
    return 0


def _cmd_example(arguments: argparse.Namespace) -> int:
    from repro.paper import figure7_load, figure7_statistics

    document = spec_to_dict(figure7_statistics(), figure7_load())
    print(json.dumps(document, indent=2))
    return 0


def _cmd_paper(arguments: argparse.Namespace) -> int:
    from repro.paper import figure7_load, figure7_statistics

    report = advise(
        figure7_statistics(), figure7_load(), keep_trace=arguments.trace
    )
    _print_report(report, arguments.trace)
    return 0


def _cmd_measure(arguments: argparse.Namespace) -> int:
    # Imported lazily: the backend pulls in the operational structures,
    # which the purely analytic subcommands never need.
    from repro.backend import (
        default_scenarios,
        render_backend_replay,
        render_calibration,
        replay_trace,
        run_calibration,
    )
    from repro.trace import read_trace

    if arguments.scenario:
        scenarios = {s.name: s for s in default_scenarios()}
        if arguments.scenario not in scenarios:
            raise ReproError(
                f"unknown scenario {arguments.scenario!r}; available: "
                + ", ".join(sorted(scenarios))
            )
        scenario = scenarios[arguments.scenario]
        database, path, stats, configuration = scenario.build()
        if arguments.trace:
            events = read_trace(arguments.trace)
        else:
            events = generate_trace(
                path, arguments.regime, arguments.events, seed=arguments.seed
            )
        report = replay_trace(
            database,
            path,
            configuration,
            events,
            seed=arguments.seed,
            stats=stats,
            layout=arguments.layout or "btree",
            recorder=arguments.recorder,
        )
        if arguments.json:
            print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        else:
            print(render_backend_replay(report))
        return 0

    # Without --layout every layout is calibrated and guarded on its
    # own: a single aggregate fit hides a layout sitting just under the
    # threshold behind a tighter one (the hash fit's 0.145 is invisible
    # next to the btree fit's 0.06).
    layouts = (arguments.layout,) if arguments.layout else ("btree", "hash")
    reports = {layout: run_calibration(layout=layout) for layout in layouts}
    if len(reports) == 1:
        payload = next(iter(reports.values())).to_json()
    else:
        payload = json.dumps(
            {layout: report.to_dict() for layout, report in reports.items()},
            indent=2,
            sort_keys=True,
        )
    if arguments.report:
        import pathlib

        pathlib.Path(arguments.report).write_text(payload + "\n")
    if arguments.json:
        print(payload)
    else:
        for layout, report in reports.items():
            if len(reports) > 1:
                print(f"== layout: {layout} ==")
            print(render_calibration(report))
    if arguments.check:
        failed = False
        for layout, report in reports.items():
            failures = report.check(arguments.threshold)
            for failure in failures:
                print(f"FAIL [{layout}]: {failure}", file=sys.stderr)
            if failures:
                failed = True
                continue
            print(
                f"accuracy guard passed [{layout}]: max relative error "
                f"{report.max_relative_error:.3f} <= "
                f"{arguments.threshold:.3f}"
            )
        if failed:
            return 1
    # The calibration path records nothing yet; main() still honors an
    # explicitly requested profile (as an empty document) rather than
    # silently dropping it.
    return 0


def _add_workers_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "worker processes for the cost-matrix construction: "
            "0 forces serial, omit for auto (parallel on long paths)"
        ),
    )


def _add_selection_arguments(
    parser: argparse.ArgumentParser, strategy: str | None = None
) -> None:
    """``--noindex``, and ``--strategy`` defaulting to ``strategy`` if given.

    A helper, not argparse ``parents=``: parent parsers share their
    actions, so one subcommand's ``set_defaults(strategy=...)`` would
    change every other subcommand's default too.
    """
    parser.add_argument(
        "--noindex",
        action="store_true",
        help="also consider leaving subpaths unindexed",
    )
    if strategy is not None:
        parser.add_argument(
            "--strategy",
            choices=available_strategies(),
            default=strategy,
            help="search strategy (default: %(default)s)",
        )


def _add_output_arguments(parser: argparse.ArgumentParser) -> None:
    """``--json`` and the ``--profile``/``--stats`` pair :func:`main` serves."""
    parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    parser.add_argument(
        "--profile",
        metavar="FILE",
        default=None,
        help=(
            "record tracing spans and metrics for the whole run and "
            "write a Chrome trace-event JSON profile (open in Perfetto "
            "or chrome://tracing) to FILE"
        ),
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help=(
            "print the recorded span timings and metric counters as an "
            "ASCII table after the command output"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Optimal index configuration selection for OO databases "
            "(Choenni, Bertino, Blanken & Chang, ICDE 1994)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    advise_parser = commands.add_parser(
        "advise", help="select the optimal configuration for a spec"
    )
    advise_parser.add_argument("spec", help="advisor spec JSON file")
    advise_parser.add_argument(
        "--trace", action="store_true", help="show branch-and-bound decisions"
    )
    _add_selection_arguments(advise_parser, DEFAULT_STRATEGY)
    _add_workers_argument(advise_parser)
    _add_output_arguments(advise_parser)
    advise_parser.set_defaults(handler=_cmd_advise)

    matrix_parser = commands.add_parser(
        "matrix", help="print the subpath x organization cost matrix"
    )
    matrix_parser.add_argument("spec", help="advisor spec JSON file")
    _add_workers_argument(matrix_parser)
    matrix_parser.set_defaults(handler=_cmd_matrix)

    multipath_parser = commands.add_parser(
        "multipath",
        help="jointly select configurations for several paths (one spec each)",
    )
    multipath_parser.add_argument(
        "specs", nargs="+", help="advisor spec JSON files, one per path"
    )
    multipath_parser.add_argument(
        "--beam-width",
        type=int,
        default=None,
        metavar="N",
        help=(
            "candidates kept per path by the k-best beam generator "
            "(default: every path enumerated when the fleet's cross product "
            "is small enough to walk exhaustively, else a width-16 beam for "
            "every path)"
        ),
    )
    multipath_parser.add_argument(
        "--budget-pages",
        type=float,
        default=None,
        metavar="P",
        help=(
            "storage budget in pages for the union of selected physical "
            "indexes (shared indexes stored once); omit for unconstrained"
        ),
    )
    multipath_parser.add_argument(
        "--per-row-organizations",
        type=int,
        default=2,
        metavar="R",
        help=(
            "best organizations considered per subpath (default 2); "
            "ignored with --budget-pages, which always considers every "
            "organization because the budget couples the choices"
        ),
    )
    multipath_parser.add_argument(
        "--restarts",
        type=int,
        default=DEFAULT_RESTARTS,
        metavar="N",
        help=(
            "seeded randomized restarts of the joint coordinate descent "
            "beyond the exact cross-product limit (default "
            f"{DEFAULT_RESTARTS}; 0 disables)"
        ),
    )
    _add_selection_arguments(multipath_parser)
    _add_workers_argument(multipath_parser)
    _add_output_arguments(multipath_parser)
    multipath_parser.set_defaults(handler=_cmd_multipath)

    whatif_parser = commands.add_parser(
        "whatif",
        help=(
            "drive an incremental what-if session through a perturbation "
            "sequence"
        ),
    )
    whatif_parser.add_argument("spec", help="advisor spec JSON file")
    whatif_parser.add_argument(
        "--steps",
        metavar="FILE",
        help=(
            "JSON perturbation sequence: a list of steps (or {\"steps\": "
            "[...]}), each {\"class\": C, \"component\": query|insert|"
            "delete|objects|distinct|fanout, \"scale\"|\"set\": X}"
        ),
    )
    whatif_parser.add_argument(
        "--perturb",
        action="append",
        default=[],
        metavar="CLASS:COMP*F|=V",
        help=(
            "one perturbation step in flag form, e.g. Division:delete*2 "
            "or Division:query=0.4 (repeatable; applied after --steps)"
        ),
    )
    _add_selection_arguments(whatif_parser, DEFAULT_SESSION_STRATEGY)
    _add_workers_argument(whatif_parser)
    _add_output_arguments(whatif_parser)
    whatif_parser.set_defaults(handler=_cmd_whatif)

    trace_parser = commands.add_parser(
        "trace",
        help="generate a seeded synthetic operation trace (JSONL) for a spec",
    )
    trace_parser.add_argument("spec", help="advisor spec JSON file")
    trace_parser.add_argument(
        "--regime",
        choices=TRACE_REGIMES,
        default="edge_drift",
        help="drift regime of the generated stream (default: edge_drift)",
    )
    trace_parser.add_argument(
        "--events",
        type=int,
        default=5000,
        metavar="N",
        help="number of events to generate (default 5000)",
    )
    trace_parser.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="S",
        help="PRNG seed; identical inputs reproduce identical traces",
    )
    trace_parser.add_argument(
        "--edge-share",
        type=float,
        default=0.8,
        metavar="F",
        help=(
            "edge_drift only: fraction of event mass on the last two "
            "path positions (default 0.8)"
        ),
    )
    trace_parser.add_argument(
        "--out",
        metavar="FILE",
        help="write the JSONL trace here (default: stdout)",
    )
    trace_parser.set_defaults(handler=_cmd_trace)

    replay_parser = commands.add_parser(
        "replay",
        help=(
            "replay an operation trace through a windowed, drift-detected "
            "continuous advisor"
        ),
    )
    replay_parser.add_argument("spec", help="advisor spec JSON file")
    replay_parser.add_argument(
        "--trace",
        required=True,
        metavar="FILE",
        help="JSONL operation trace (see the 'trace' subcommand)",
    )
    replay_parser.add_argument(
        "--window",
        type=int,
        default=None,
        metavar="N",
        help=(
            "events per aggregation window (default 200 unless "
            "--window-seconds selects pure wall-clock windows)"
        ),
    )
    replay_parser.add_argument(
        "--slide",
        type=int,
        default=None,
        metavar="N",
        help=(
            "events between window snapshots (default: the window size, "
            "i.e. tumbling windows; smaller values slide)"
        ),
    )
    replay_parser.add_argument(
        "--window-seconds",
        type=float,
        default=None,
        metavar="T",
        help=(
            "wall-clock window span in trace-timestamp seconds: alone, "
            "windows are pure wall-clock; with --window, events older "
            "than T are evicted from the count window (hybrid)"
        ),
    )
    replay_parser.add_argument(
        "--slide-seconds",
        type=float,
        default=None,
        metavar="T",
        help=(
            "timestamp progress between wall-clock snapshots (default: "
            "the window span, i.e. tumbling; wall-clock mode only)"
        ),
    )
    replay_parser.add_argument(
        "--threshold",
        default="0.2",
        metavar="X",
        help=(
            "relative workload change that counts as drift (default "
            "0.2), or 'auto' to scale with window sampling noise "
            "(~1/sqrt(window))"
        ),
    )
    replay_parser.add_argument(
        "--hysteresis",
        type=int,
        default=2,
        metavar="K",
        help=(
            "consecutive drifting windows required before a re-advise "
            "(default 2)"
        ),
    )
    replay_parser.add_argument(
        "--rate-scale",
        type=float,
        default=1.0,
        metavar="S",
        help="multiplier from per-event window shares to load frequencies",
    )
    replay_parser.add_argument(
        "--track-stats",
        action="store_true",
        help=(
            "fold the cumulative insert/delete balance into the class "
            "statistics (objects drift with the stream)"
        ),
    )
    replay_parser.add_argument(
        "--checkpoint",
        metavar="FILE",
        default=None,
        help=(
            "write a resumable snapshot of the advisor here after the "
            "replay (and read it first with --resume)"
        ),
    )
    replay_parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "restore the advisor from --checkpoint and continue the "
            "stream from where it left off (bit-identical to an "
            "uninterrupted run); windowing/drift flags come from the "
            "checkpoint"
        ),
    )
    replay_parser.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        metavar="T",
        help=(
            "wall-clock budget per re-advise in milliseconds; on expiry "
            "the advisor answers from the last-known-good configuration "
            "(or, with none yet, from the dynamic program run past the "
            "deadline) — each step reports the rung that answered"
        ),
    )
    replay_parser.add_argument(
        "--on-error",
        choices=("raise", "skip", "collect"),
        default="raise",
        help=(
            "malformed trace lines: 'raise' aborts (default), 'skip' "
            "drops them, 'collect' drops them and reports each parse "
            "error; skipped line numbers are always reported"
        ),
    )
    _add_selection_arguments(replay_parser, DEFAULT_SESSION_STRATEGY)
    _add_workers_argument(replay_parser)
    _add_output_arguments(replay_parser)
    replay_parser.set_defaults(handler=_cmd_replay)

    example_parser = commands.add_parser(
        "example", help="print a template spec (the paper's Figure 7)"
    )
    example_parser.set_defaults(handler=_cmd_example)

    paper_parser = commands.add_parser(
        "paper", help="reproduce the paper's Example 5.1"
    )
    paper_parser.add_argument("--trace", action="store_true")
    paper_parser.set_defaults(handler=_cmd_paper)

    measure_parser = commands.add_parser(
        "measure",
        help=(
            "ground truth: materialize configurations as real page "
            "structures, measure I/O, calibrate the cost model"
        ),
    )
    measure_parser.add_argument(
        "--layout",
        choices=("btree", "hash"),
        default=None,
        help=(
            "storage layout for the materialized structures; omit to "
            "calibrate (and --check) every layout separately"
        ),
    )
    measure_parser.add_argument(
        "--check",
        action="store_true",
        help=(
            "fail (exit 1) when any scenario's post-fit relative error "
            "exceeds --threshold — the CI accuracy guard"
        ),
    )
    measure_parser.add_argument(
        "--threshold",
        type=float,
        default=0.15,
        metavar="X",
        help="relative-error bound for --check (default 0.15)",
    )
    measure_parser.add_argument(
        "--report",
        metavar="FILE",
        default=None,
        help="write the calibration report (JSON) here",
    )
    measure_parser.add_argument(
        "--scenario",
        metavar="NAME",
        default=None,
        help=(
            "replay a trace against this seeded scenario instead of "
            "running the calibration suite"
        ),
    )
    measure_parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="JSONL trace to replay (with --scenario); generated if omitted",
    )
    measure_parser.add_argument(
        "--regime",
        choices=TRACE_REGIMES,
        default="stationary",
        help="regime for the generated trace (without --trace)",
    )
    measure_parser.add_argument(
        "--events",
        type=int,
        default=200,
        metavar="N",
        help="events to generate (without --trace)",
    )
    measure_parser.add_argument(
        "--seed", type=int, default=0, help="replay / generation seed"
    )
    _add_output_arguments(measure_parser)
    measure_parser.set_defaults(handler=_cmd_measure)
    return parser


def _finish_profile(arguments: argparse.Namespace) -> None:
    """Print the ``--stats`` table and write the ``--profile`` document."""
    if arguments.stats:
        print()
        print(stats_table(arguments.recorder))
    if arguments.profile:
        write_profile(
            arguments.recorder,
            arguments.profile,
            meta={"command": arguments.command},
        )
        print(f"profile written to {arguments.profile}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    # One recorder for the whole run when --profile or --stats asks for
    # it; None keeps every instrumented call on the zero-overhead
    # null-recorder path.
    profiled = getattr(arguments, "profile", None) or getattr(
        arguments, "stats", False
    )
    arguments.recorder = Recorder() if profiled else None
    try:
        code = arguments.handler(arguments)
        if code == 0 and profiled:
            _finish_profile(arguments)
        return code
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly like a good
        # Unix citizen.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0
    except OSError as error:
        # A missing, unreadable or directory path argument.
        print(f"error: {error}", file=sys.stderr)
        return 1
