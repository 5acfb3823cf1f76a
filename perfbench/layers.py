"""Outside-in layer tracing: spans around the calls into each layer.

:class:`LayerTracer` replaces the public functions and methods at each
layer boundary of ``repro`` with wrappers that open a span, call the
original and close the span, and puts the originals back on exit. The
program itself is never handed a recorder: a benchmark-owned
:class:`repro.obs.Recorder` is only the store the spans land in, and the
same store is exported with :mod:`repro.obs.export`.

Every span carries its own id, its parent's id and the request id in
its arguments, so self time (a span's duration minus its children's) is
computed from the store alone. Work done inside pool worker processes
is not visible from here and stays in the self time of the
``cost_matrix.compute`` span that waits for it.
"""

from __future__ import annotations

import functools
import json
import math

#: Per-layer time metrics (milliseconds of self time per operation) and
#: the span names whose self time each one sums. Together they cover
#: every span the tracer records, roots included, so per operation they
#: add up to ``bench.op_ms``.
SELF_TIME_METRICS = {
    "kernel.lower_ms": ("kernel.lower",),
    "kernel.fold_ms": ("kernel.compute_rows",),
    "kernel.patch_ms": ("kernel.patch_lowering",),
    "cost_matrix.compute_ms": ("cost_matrix.compute",),
    "cost_matrix.recompute_ms": ("cost_matrix.recompute",),
    "search.bnb_ms": ("search.branch_and_bound",),
    "search.exhaustive_ms": ("search.exhaustive",),
    "search.dp_ms": (
        "search.dynamic_program",
        "search.incremental_dynamic_program",
    ),
    "search.refine_ms": ("search.refine",),
    "search.top_k_ms": ("search.top_configurations",),
    "whatif.apply_many_ms": ("whatif.apply_many",),
    "advisor.self_ms": ("advisor.advise",),
    "multipath.self_ms": ("multipath.optimize_multipath",),
    "trace.self_ms": ("trace.push", "trace.flush"),
}


#: Every per-layer metric a traced run prints, with its unit.
PER_LAYER_UNITS = {
    **dict.fromkeys(SELF_TIME_METRICS, "ms"),
    "cost_matrix.us_per_entry": "us",
    "cost_matrix.dirty_fraction": "ratio",
    "cost_matrix.rows_patched": "count",
    "cost_matrix.kernel_fallbacks": "count",
    "search.bnb_evaluated": "count",
    "search.exhaustive_evaluated": "count",
    "search.refine_positions": "count",
    "whatif.batch_size": "count",
    "trace.push_us": "us",
    "trace.fire_ratio": "ratio",
    "multipath.budget_use": "ratio",
    "process.cpu_per_wall": "ratio",
    "bench.op_ms": "ms",
    "bench.trace_overhead_pct": "%",
}


class _Span:
    """One open span: a recorder span whose args name its parent."""

    __slots__ = ("_tracer", "_inner", "id")

    def __init__(self, tracer: "LayerTracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self.id = tracer._next_id
        tracer._next_id += 1
        stack = tracer._stack
        self._inner = tracer.recorder.span(
            name,
            id=self.id,
            parent=stack[-1] if stack else None,
            request=tracer.request,
            **attrs,
        )

    def __enter__(self) -> "_Span":
        self._tracer._stack.append(self.id)
        self._inner.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._inner.__exit__(exc_type, exc, tb)
        self._tracer._stack.pop()
        return False

    def note(self, **attrs) -> None:
        self._inner.note(**attrs)


def _note_compute(span, args, kwargs, matrix) -> None:
    span.note(entries=matrix.row_count() * len(matrix.organizations))


def _note_recompute(span, args, kwargs, matrix) -> None:
    report = matrix.recompute_report
    span.note(
        dirty=len(report.recomputed_rows),
        patched=len(report.patched_rows),
        total=report.total_rows,
        fallback=bool(report.recomputed_rows)
        and report.kernel_fallback_reason is not None,
    )


def _note_evaluated(span, args, kwargs, result) -> None:
    span.note(evaluated=result.evaluated)


def _note_refine(span, args, kwargs, result) -> None:
    span.note(positions=result.extras.get("relaxed_positions", 0))


def _note_batch(span, args, kwargs, report) -> None:
    perturbations = args[1] if len(args) > 1 else kwargs["perturbations"]
    span.note(batch=len(perturbations))


def _boundaries():
    """``(owner, attribute, span name, note)`` for every wrapped call."""
    import repro.core.multipath as multipath
    import repro.kernel as kernel
    from repro.core.cost_matrix import CostMatrix
    from repro.search.branch_and_bound import BranchAndBoundStrategy
    from repro.search.dynamic_program import (
        DynamicProgramStrategy,
        IncrementalDynamicProgramStrategy,
    )
    from repro.search.exhaustive import ExhaustiveStrategy
    from repro.whatif import AdvisorSession

    return (
        (kernel, "lower", "kernel.lower", None),
        (kernel, "compute_rows", "kernel.compute_rows", None),
        (kernel, "patch_lowering", "kernel.patch_lowering", None),
        (CostMatrix, "compute", "cost_matrix.compute", _note_compute),
        (CostMatrix, "recompute", "cost_matrix.recompute", _note_recompute),
        (
            BranchAndBoundStrategy, "search", "search.branch_and_bound",
            _note_evaluated,
        ),
        (ExhaustiveStrategy, "search", "search.exhaustive", _note_evaluated),
        (DynamicProgramStrategy, "search", "search.dynamic_program", None),
        (
            IncrementalDynamicProgramStrategy, "search",
            "search.incremental_dynamic_program", None,
        ),
        (IncrementalDynamicProgramStrategy, "refine", "search.refine",
         _note_refine),
        (AdvisorSession, "apply_many", "whatif.apply_many", _note_batch),
        (
            multipath, "top_configurations", "search.top_configurations",
            None,
        ),
    )


class LayerTracer:
    """Spans around every layer boundary while used as a context manager."""

    def __init__(self) -> None:
        from repro.obs import Recorder

        self.recorder = Recorder()
        self.request = None
        self._stack: list[int] = []
        self._next_id = 0
        self._restore: list[tuple] = []

    def span(self, name: str, **attrs) -> _Span:
        """A span under whichever span is open (a root when none is)."""
        return _Span(self, name, attrs)

    def _wrap(self, function, name, note):
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            with tracer.span(name) as span:
                result = function(*args, **kwargs)
                if note is not None:
                    note(span, args, kwargs, result)
            return result

        return traced

    def __enter__(self) -> "LayerTracer":
        try:
            for owner, attribute, name, note in _boundaries():
                original = vars(owner)[attribute]
                if isinstance(original, classmethod):
                    replacement = classmethod(
                        self._wrap(original.__func__, name, note)
                    )
                else:
                    replacement = self._wrap(original, name, note)
                self._restore.append((owner, attribute, original))
                setattr(owner, attribute, replacement)
        except BaseException:
            # A boundary that moved must not leave the others wrapped.
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> bool:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)
        return False


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child_time = [0.0] * len(spans)
    index_of = {span["args"]["id"]: index for index, span in enumerate(spans)}
    for span in spans:
        parent = span["args"]["parent"]
        if parent is not None:
            child_time[index_of[parent]] += span["dur"]
    return [span["dur"] - child for span, child in zip(spans, child_time)]


def _mean(values: list) -> float:
    return math.fsum(values) / len(values) if values else 0.0


def layer_metrics(spans: list[dict]) -> tuple[dict, float]:
    """Per-layer metrics of a traced run and its mean operation time.

    Returns ``(metrics, op_seconds)``: the self-time metrics of
    :data:`SELF_TIME_METRICS` per root operation in milliseconds plus the
    work counts noted on the spans, and the mean root span duration.
    Raises ``ValueError`` for a span name no metric accounts for.
    """
    selfs = self_times(spans)
    roots = [span for span in spans if span["args"]["parent"] is None]
    operations = len(roots)
    if operations == 0:
        raise ValueError("the traced run recorded no operation")
    metric_of = {
        name: metric
        for metric, names in SELF_TIME_METRICS.items()
        for name in names
    }
    totals = dict.fromkeys(SELF_TIME_METRICS, 0.0)
    by_name: dict[str, list[tuple[dict, float]]] = {}
    for span, own in zip(spans, selfs):
        if span["name"] not in metric_of:
            raise ValueError(f"span {span['name']!r} belongs to no layer metric")
        totals[metric_of[span["name"]]] += own
        by_name.setdefault(span["name"], []).append((span, own))
    metrics = {
        metric: 1000.0 * total / operations for metric, total in totals.items()
    }

    def noted(name: str, key: str) -> list:
        return [span["args"][key] for span, _ in by_name.get(name, ())]

    computes = by_name.get("cost_matrix.compute", ())
    entries = math.fsum(span["args"]["entries"] for span, _ in computes)
    metrics["cost_matrix.us_per_entry"] = (
        1e6 * math.fsum(span["dur"] for span, _ in computes) / entries
        if entries
        else 0.0
    )
    total_rows = math.fsum(noted("cost_matrix.recompute", "total"))
    metrics["cost_matrix.dirty_fraction"] = (
        math.fsum(noted("cost_matrix.recompute", "dirty")) / total_rows
        if total_rows
        else 0.0
    )
    metrics["cost_matrix.rows_patched"] = _mean(
        noted("cost_matrix.recompute", "patched")
    )
    metrics["cost_matrix.kernel_fallbacks"] = float(
        sum(noted("cost_matrix.recompute", "fallback"))
    )
    metrics["search.bnb_evaluated"] = _mean(
        noted("search.branch_and_bound", "evaluated")
    )
    metrics["search.exhaustive_evaluated"] = _mean(
        noted("search.exhaustive", "evaluated")
    )
    metrics["search.refine_positions"] = _mean(
        noted("search.refine", "positions")
    )
    metrics["whatif.batch_size"] = _mean(noted("whatif.apply_many", "batch"))
    quiet_pushes = [
        own
        for span, own in by_name.get("trace.push", ())
        if not span["args"].get("readvise")
    ]
    metrics["trace.push_us"] = 1e6 * _mean(quiet_pushes)
    op_seconds = math.fsum(span["dur"] for span in roots) / operations
    return metrics, op_seconds


def export_and_validate(tracer: LayerTracer, path, meta: dict, root: str,
                        validate) -> list[str]:
    """Write the Perfetto-loadable profile and return the validator's findings."""
    from repro.obs.export import write_profile

    target = write_profile(tracer.recorder, path, meta)
    document = json.loads(target.read_text(encoding="utf-8"))
    return validate(document, required_spans=(root,))
