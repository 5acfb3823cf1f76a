"""Fitting the cost model's constants to measured page I/O.

The Section 3 formulas predict page accesses from statistics alone; the
backend measures the same operations on real structures. This module
closes the loop: :func:`measure_scenarios` runs the seeded scenario
suite and collects one :class:`ScenarioMeasurement` per
``(scenario, operation, class)``, and :func:`calibrate` fits one affine
correction ``measured ≈ scale·analytic + offset`` per organization-shape
group (see :func:`operation_organization`) by weighted least squares
over those rows — the per-organization residual fit the accuracy guard
needs.

The resulting :class:`CalibrationReport` keeps the raw measurements, so
per-scenario relative errors can be recomputed for *any* constant set —
that is what lets the CI guard detect tampered or stale constants, not
just a bad fit: ``report.check(threshold)`` fails when any scenario's
post-fit relative error exceeds the threshold.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.backend.materialize import MaterializedConfiguration
from repro.backend.scenarios import BackendScenario, default_scenarios
from repro.backend.validate import sample_operations
from repro.core.evaluation import per_class_analytic_costs
from repro.costmodel.params import CostModelConfig
from repro.errors import ReproError


@dataclass(frozen=True)
class ScenarioMeasurement:
    """Mean analytic and measured pages of one (scenario, op, class)."""

    scenario: str
    organization: str
    operation: str
    class_name: str
    position: int
    analytic: float
    measured: float
    samples: int

    @property
    def key(self) -> str:
        """The constant group this row calibrates, e.g. ``c_query_nix``."""
        return constant_name(self.organization, self.operation)


def constant_name(organization: str, operation: str) -> str:
    """Name of the correction constant for one (organization, operation)."""
    return f"c_{operation}_{organization.lower()}"


def operation_organization(
    parts: Sequence[tuple[int, int, str]], position: int, operation: str
) -> str:
    """The organization *shape* an operation at a position traverses.

    The residual between the Yao expectation and a real structure is not
    one number per organization: it depends on the subpath length (the
    record shape), the depth of the target class within the subpath (how
    much of the structure a partial lookup walks), the later parts a
    query chains through, and the CMD charge a subpath-starting deletion
    pays on the *preceding* part. The constant key therefore encodes all
    of it — ``"nix3.d1"`` for an operation one level into a length-3 NIX
    part, ``"nix2+mix1.d0"`` for a query chained into a MIX tail,
    ``"mix1.d0+cmd-nix2"`` for a deletion paying CMD — so each fitted
    constant corrects a homogeneous population and generalizes across
    database sizes, which is the axis the scenario suite varies.
    """
    g = next(
        i for i, (start, end, _) in enumerate(parts) if start <= position <= end
    )
    start, end, organization = parts[g]
    own = f"{organization.lower()}{end - start + 1}"
    depth = position - start
    if operation == "query":
        tail = [
            f"{org.lower()}{e - s + 1}" for s, e, org in parts[g + 1 :]
        ]
        return f"{'+'.join([own, *tail])}.d{depth}"
    if operation == "delete" and position == start and g > 0:
        ps, pe, previous = parts[g - 1]
        return f"{own}.d{depth}+cmd-{previous.lower()}{pe - ps + 1}"
    return f"{own}.d{depth}"


@dataclass(frozen=True)
class ConstantFit:
    """One fitted correction constant: ``measured ≈ scale·x + offset``."""

    name: str
    scale: float
    offset: float
    samples: int
    residual: float

    def apply(self, analytic: float) -> float:
        """Calibrated prediction for an analytic cost."""
        return self.scale * analytic + self.offset


#: The identity constant: calibrated prediction equals the analytic one.
IDENTITY = ConstantFit(name="identity", scale=1.0, offset=0.0, samples=0, residual=0.0)


def measure_scenarios(
    scenarios: Sequence[BackendScenario] | None = None,
    layout: str = "btree",
    query_samples: int = 8,
    update_samples: int = 4,
    config: CostModelConfig | None = None,
) -> list[ScenarioMeasurement]:
    """Run every scenario on the backend and collect comparison rows.

    Each scenario is built fresh from its seed, materialized on a
    :class:`~repro.backend.tracker.PageAccessTracker`, and sampled by
    :func:`~repro.backend.validate.sample_operations` (the loop
    validation uses): ``query_samples`` equality queries per scope class
    (before any mutation, so the analytic statistics still describe the
    database), then ``update_samples`` deletions and clone-template
    insertions per class. Everything — probe values, victims, templates
    — is drawn from a generator seeded by the scenario, so the returned
    rows are bit-identical across runs.
    """
    config = config or CostModelConfig()
    rows: list[ScenarioMeasurement] = []
    for scenario in scenarios if scenarios is not None else default_scenarios():
        database, path, stats, configuration = scenario.build(config)
        analytic = per_class_analytic_costs(stats, configuration)
        parts = [
            (part.start, part.end, part.organization.name)
            for part in configuration.assignments
        ]
        backend = MaterializedConfiguration(
            database, path, configuration, sizes=config.sizes, layout=layout
        )
        sampled = sample_operations(
            backend,
            path,
            random.Random(scenario.seed),
            query_samples=query_samples,
            update_samples=update_samples,
        )
        rows.extend(
            ScenarioMeasurement(
                scenario=scenario.name,
                organization=operation_organization(parts, position, operation),
                operation=operation,
                class_name=member,
                position=position,
                analytic=analytic[(position, member)][operation],
                measured=measured,
                samples=count,
            )
            for operation, position, member, measured, count in sampled
        )
    return rows


def _fit_group(
    name: str, group: Sequence[ScenarioMeasurement]
) -> ConstantFit:
    """Weighted affine least squares over one constant group.

    Degenerate designs fall back gracefully: a single-point or
    constant-``x`` group gets a pure ratio fit (offset zero), an all-zero
    analytic column gets ``scale=1`` with the measured mean as offset,
    and a non-physical negative slope is replaced by the ratio fit —
    the correction must preserve "more predicted pages means more
    measured pages".
    """
    sw = sx = sy = sxx = sxy = 0.0
    for row in group:
        w = float(row.samples)
        sw += w
        sx += w * row.analytic
        sy += w * row.measured
        sxx += w * row.analytic * row.analytic
        sxy += w * row.analytic * row.measured

    def ratio_fit() -> tuple[float, float]:
        if sxx > 0:
            return sxy / sxx, 0.0
        return 1.0, sy / sw if sw else 0.0

    denominator = sw * sxx - sx * sx
    if denominator <= 1e-9 * max(sw * sxx, 1.0):
        scale, offset = ratio_fit()
    else:
        scale = (sw * sxy - sx * sy) / denominator
        offset = (sy - scale * sx) / sw
        if scale < 0:
            scale, offset = ratio_fit()
    residual_sq = 0.0
    for row in group:
        predicted = scale * row.analytic + offset
        residual_sq += row.samples * (predicted - row.measured) ** 2
    residual = math.sqrt(residual_sq / sw) if sw else 0.0
    return ConstantFit(
        name=name,
        scale=scale,
        offset=offset,
        samples=int(sum(row.samples for row in group)),
        residual=residual,
    )


def calibrate(
    measurements: Sequence[ScenarioMeasurement],
) -> "CalibrationReport":
    """Fit every (organization, operation) constant from measured rows."""
    if not measurements:
        raise ReproError("cannot calibrate without measurements")
    groups: dict[str, list[ScenarioMeasurement]] = {}
    for row in measurements:
        groups.setdefault(row.key, []).append(row)
    constants = {
        name: _fit_group(name, group) for name, group in sorted(groups.items())
    }
    return CalibrationReport(
        constants=constants, measurements=tuple(measurements)
    )


@dataclass(frozen=True)
class CalibrationReport:
    """Fitted constants plus the raw measurements they came from.

    Keeping the measurements makes the report *re-checkable*: every
    error metric accepts an alternative constant mapping, so the CI
    guard can evaluate the shipped constants — not merely the ones this
    fit would produce — against the same measured ground truth.
    """

    constants: Mapping[str, ConstantFit]
    measurements: tuple[ScenarioMeasurement, ...]

    def _constant(
        self, row: ScenarioMeasurement, constants: Mapping[str, ConstantFit]
    ) -> ConstantFit:
        return constants.get(row.key, IDENTITY)

    def predicted(
        self,
        row: ScenarioMeasurement,
        constants: Mapping[str, ConstantFit] | None = None,
    ) -> float:
        """Calibrated prediction for one measurement row."""
        mapping = self.constants if constants is None else constants
        return self._constant(row, mapping).apply(row.analytic)

    def scenario_errors(
        self, constants: Mapping[str, ConstantFit] | None = None
    ) -> dict[str, float]:
        """Relative error of total predicted vs measured pages, per scenario."""
        predicted: dict[str, float] = {}
        measured: dict[str, float] = {}
        for row in self.measurements:
            predicted[row.scenario] = predicted.get(row.scenario, 0.0) + (
                row.samples * self.predicted(row, constants)
            )
            measured[row.scenario] = measured.get(row.scenario, 0.0) + (
                row.samples * row.measured
            )
        errors: dict[str, float] = {}
        for scenario, total in measured.items():
            if total <= 0:
                errors[scenario] = float("inf")
            else:
                errors[scenario] = abs(predicted[scenario] - total) / total
        return errors

    @property
    def max_relative_error(self) -> float:
        """Worst post-fit per-scenario relative error."""
        return max(self.scenario_errors().values())

    def check(
        self,
        threshold: float = 0.15,
        constants: Mapping[str, ConstantFit] | None = None,
    ) -> list[str]:
        """CI-grade accuracy guard: failure messages, empty when passing."""
        failures: list[str] = []
        for scenario, error in sorted(self.scenario_errors(constants).items()):
            if not (error <= threshold):
                failures.append(
                    f"scenario {scenario}: relative error {error:.3f} "
                    f"exceeds threshold {threshold:.3f}"
                )
        return failures

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable form (the CI artifact schema)."""
        return {
            "constants": {
                name: {
                    "scale": fit.scale,
                    "offset": fit.offset,
                    "samples": fit.samples,
                    "residual": fit.residual,
                }
                for name, fit in sorted(self.constants.items())
            },
            "scenario_errors": {
                name: error
                for name, error in sorted(self.scenario_errors().items())
            },
            "max_relative_error": self.max_relative_error,
            "measurements": [
                {
                    "scenario": row.scenario,
                    "organization": row.organization,
                    "operation": row.operation,
                    "class": row.class_name,
                    "position": row.position,
                    "analytic": row.analytic,
                    "measured": row.measured,
                    "samples": row.samples,
                }
                for row in self.measurements
            ],
        }

    def to_json(self) -> str:
        """Compact JSON of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def render_calibration(report: CalibrationReport) -> str:
    """ASCII rendering: fitted constants, then per-scenario errors."""
    lines: list[str] = []
    header = (
        f"{'constant':<18} {'scale':>8} {'offset':>8} "
        f"{'samples':>7} {'residual':>9}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for name, fit in sorted(report.constants.items()):
        lines.append(
            f"{name:<18} {fit.scale:>8.3f} {fit.offset:>8.3f} "
            f"{fit.samples:>7} {fit.residual:>9.3f}"
        )
    lines.append("")
    error_header = f"{'scenario':<24} {'rel.error':>9}"
    lines.append(error_header)
    lines.append("-" * len(error_header))
    for scenario, error in sorted(report.scenario_errors().items()):
        lines.append(f"{scenario:<24} {error:>9.3f}")
    lines.append("")
    lines.append(f"max relative error: {report.max_relative_error:.3f}")
    return "\n".join(lines)


def run_calibration(
    scenarios: Sequence[BackendScenario] | None = None,
    layout: str = "btree",
    query_samples: int = 8,
    update_samples: int = 4,
    config: CostModelConfig | None = None,
) -> CalibrationReport:
    """Measure the scenario suite and fit constants in one call."""
    return calibrate(
        measure_scenarios(
            scenarios,
            layout=layout,
            query_samples=query_samples,
            update_samples=update_samples,
            config=config,
        )
    )
