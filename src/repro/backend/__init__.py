"""Ground-truth execution backend.

The advisor's numbers are Yao-formula analytics; this package is the
machinery that checks them against *real* page I/O:

* :class:`~repro.backend.tracker.PageAccessTracker` — a pager that, on
  top of read/write counting, tracks allocations, frees and per-owner
  attribution (which subpath index or heap extent owns each page), and
  measures named operations;
* :class:`~repro.backend.materialize.MaterializedConfiguration` — an
  advised configuration built as actual page structures behind a tracker,
  with measured ``query``/``insert``/``delete``;
* :mod:`~repro.backend.replay` — runs a :mod:`repro.trace` JSONL stream
  against a materialized configuration and reports measured page I/O
  beside the analytic predictions, per (operation, class) and per
  (subpath, organization);
* :mod:`~repro.backend.validate` — the seeded operation sampler
  (:func:`~repro.backend.validate.sample_operations`) that validation
  and calibration share, per-(operation, class) measured-vs-analytic
  rows for one configuration (``validate_configuration``) and each
  part's estimated-vs-held storage pages (``validate_storage``);
* :mod:`~repro.backend.scenarios` — the seeded scenario suite the
  accuracy guard runs on;
* :mod:`~repro.backend.calibrate` — least-squares fit of per-organization
  correction constants to measured counts, a
  :class:`~repro.backend.calibrate.CalibrationReport`, and the CI-grade
  ``check`` that fails when any scenario's post-fit relative error
  exceeds the threshold.
"""

from repro.backend.calibrate import (
    CalibrationReport,
    ConstantFit,
    ScenarioMeasurement,
    calibrate,
    measure_scenarios,
    render_calibration,
    run_calibration,
)
from repro.backend.materialize import MaterializedConfiguration, MeasuredOperation
from repro.backend.replay import (
    BackendReplayReport,
    render_backend_replay,
    replay_trace,
)
from repro.backend.scenarios import BackendScenario, default_scenarios
from repro.backend.tracker import OperationIO, PageAccessTracker
from repro.backend.validate import (
    StorageRow,
    ValidationRow,
    render_storage,
    render_validation,
    validate_configuration,
    validate_storage,
)

__all__ = [
    "BackendReplayReport",
    "BackendScenario",
    "CalibrationReport",
    "ConstantFit",
    "MaterializedConfiguration",
    "MeasuredOperation",
    "OperationIO",
    "PageAccessTracker",
    "ScenarioMeasurement",
    "StorageRow",
    "ValidationRow",
    "calibrate",
    "default_scenarios",
    "measure_scenarios",
    "render_backend_replay",
    "render_calibration",
    "render_storage",
    "render_validation",
    "replay_trace",
    "run_calibration",
    "validate_configuration",
    "validate_storage",
]
