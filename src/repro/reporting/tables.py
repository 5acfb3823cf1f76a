"""Plain ASCII tables for benchmark output.

The benchmarks print the rows and series the paper reports; these helpers
keep that output uniform without pulling in any dependency.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from repro.core.cost_matrix import RecomputeReport
    from repro.core.multipath import MultiPathResult
    from repro.trace import ReplayStep
    from repro.whatif import WhatIfStep


def ascii_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render a right-aligned ASCII table (first column left-aligned)."""
    rendered_rows = [[_cell(value) for value in row] for row in rows]
    widths = [
        max(
            len(str(headers[i])),
            *(len(row[i]) for row in rendered_rows),
        )
        if rendered_rows
        else len(str(headers[i]))
        for i in range(len(headers))
    ]

    def fmt(cells: Sequence[str]) -> str:
        parts = []
        for i, cell in enumerate(cells):
            if i == 0:
                parts.append(cell.ljust(widths[i]))
            else:
                parts.append(cell.rjust(widths[i]))
        return "  ".join(parts)

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt([str(h) for h in headers]))
    lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
    lines.extend(fmt(row) for row in rendered_rows)
    return "\n".join(lines)


def multipath_table(
    paths: Sequence[object],
    result: "MultiPathResult",
    title: str | None = None,
) -> str:
    """Per-path configuration table plus the joint-selection summary.

    One row per path of a
    :class:`~repro.core.multipath.MultiPathResult`; the summary lines
    report the joint cost against the independent optima, the sharing
    savings, the union storage footprint, and the budget when one
    constrained the selection.
    """
    rows = [
        [str(path), result.configurations[index].render(path)]
        for index, path in enumerate(paths)
    ]
    table = ascii_table(["path", "chosen configuration"], rows, title=title)
    joint_label = "joint optimum:" if result.exact else "joint selection:"
    lines = [
        table,
        "",
        f"independent optima total: {result.independent_cost:.2f}",
        f"{joint_label:<26}{result.total_cost:.2f}",
        f"sharing savings:          {result.shared_savings:.2f}",
        f"storage pages:            {result.storage_pages:.0f}",
    ]
    if result.budget_pages is not None:
        lines.append(f"budget pages:             {result.budget_pages:.0f}")
        if result.unconstrained_cost is not None:
            lines.append(
                "cost of the budget:       "
                f"+{result.total_cost - result.unconstrained_cost:.2f}"
            )
    return "\n".join(lines)


def whatif_table(
    path: object,
    steps: Sequence["WhatIfStep"],
    title: str | None = None,
) -> str:
    """Per-step report of a what-if perturbation sequence.

    One row per :class:`~repro.whatif.WhatIfStep`: the perturbation, how
    much matrix work the step needed (rows re-priced + rows CMD-patched,
    or ``full`` on a fallback rebuild — with ``kN`` marking the ``N``
    rows the columnar kernel re-priced as one dirty slice and ``!`` a
    step whose dirty rows the kernel left to the scalar oracle), the
    resulting optimal cost and its delta, and the selected configuration
    — printed only when it changed from the previous step, so
    drifting-workload reports surface the re-indexing points at a
    glance.
    """
    rows: list[list[object]] = []
    previous_cost: float | None = None
    fallback_reasons: set[str] = set()
    for step in steps:
        report = step.report
        work = _dirty_rows_cell(report)
        if report is not None and report.mode != "full":
            if report.kernel_slice_rows:
                work += f" k{report.kernel_slice_rows}"
            if report.kernel_fallback_reason is not None:
                work += "!"
                fallback_reasons.add(report.kernel_fallback_reason)
        delta = "" if previous_cost is None else f"{step.cost - previous_cost:+.2f}"
        configuration = _configuration_cell(path, step)
        rows.append(
            [step.description, work, f"{step.cost:.2f}", delta, configuration]
        )
        previous_cost = step.cost
    table = ascii_table(
        ["step", "dirty rows", "cost", "delta", "configuration"],
        rows,
        title=title,
    )
    if fallback_reasons:
        table += "\n! kernel slice fell back to the scalar oracle: " + (
            ", ".join(sorted(fallback_reasons))
        )
    return table


def replay_table(
    path: object,
    steps: Sequence["ReplayStep"],
    title: str | None = None,
) -> str:
    """Timeline of a trace replay's re-advise points.

    One row per :class:`~repro.trace.ReplayStep`: where the step came
    from (baseline, triggering window, or the end-of-trace flush), the
    events consumed so far, the drift signal that fired, the batch size
    handed to ``apply_many`` with the matrix work it caused, the
    resulting cost and its delta — and the recommended configuration,
    printed only when it changed, so long replays surface the actual
    re-indexing points at a glance.
    """
    rows: list[list[object]] = []
    previous_cost: float | None = None
    for step in steps:
        if step.window is not None:
            origin = f"window {step.window}"
        elif step.forced:
            origin = "flush"
        else:
            origin = "baseline"
        delta = "" if previous_cost is None else f"{step.cost - previous_cost:+.2f}"
        if step.report is None:
            drift = "-"
        elif step.change > 9.995:
            # A frequency appearing from (near) zero registers as a huge
            # but uninformative relative change; cap the display.
            drift = ">999%"
        else:
            drift = f"{step.change:.0%}"
        rows.append(
            [
                origin,
                step.events_seen,
                drift,
                step.perturbations if step.report is not None else "-",
                _dirty_rows_cell(step.report),
                f"{step.cost:.2f}",
                delta,
                _configuration_cell(path, step),
            ]
        )
        previous_cost = step.cost
    return ascii_table(
        [
            "step",
            "events",
            "drift",
            "batch",
            "dirty rows",
            "cost",
            "delta",
            "configuration",
        ],
        rows,
        title=title,
    )


def _dirty_rows_cell(report: "RecomputeReport | None") -> str:
    """The matrix work of one step: ``-``, ``full (N rows)`` or ``R+Pp/N``."""
    if report is None:
        return "-"
    if report.mode == "full":
        return f"full ({report.total_rows} rows)"
    return (
        f"{len(report.recomputed_rows)}+{len(report.patched_rows)}p"
        f"/{report.total_rows}"
    )


def _configuration_cell(path: object, step: "WhatIfStep | ReplayStep") -> str:
    """A step's configuration, or ``(unchanged)`` when it did not change."""
    if step.report is None or step.configuration_changed:
        return step.result.configuration.render(path)
    return "(unchanged)"


def comparison_table(
    label: str,
    paper_value: object,
    measured_value: object,
    note: str = "",
) -> str:
    """One paper-vs-measured line for EXPERIMENTS.md-style output."""
    suffix = f"  ({note})" if note else ""
    return f"{label}: paper={_cell(paper_value)} measured={_cell(measured_value)}{suffix}"


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
