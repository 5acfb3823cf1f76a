"""Columnar numpy evaluation kernel for the cost matrix.

``repro.kernel`` computes the full ``Cost_Matrix`` as array operations
over all (row, organization) pairs at once:

* :class:`~repro.kernel.arrays.StatArrays` lowers
  :class:`~repro.costmodel.params.PathStatistics` and a workload into
  contiguous per-position arrays (objects, distinct values, fanouts,
  probe-key chains, nin-bar chains, occupancy counts, extent pages);
* :mod:`~repro.kernel.evaluate` applies vectorized CRT/CMT/CRR formulas
  per organization over all subpath rows, folding the per-row sums in
  exactly the accumulation order of the scalar cost model so the
  resulting matrix is **bit-identical** to
  :func:`repro.costmodel.subpath.subpath_processing_cost` row by row;
* :func:`compute_rows` is the matrix engine every
  :meth:`repro.core.cost_matrix.CostMatrix.compute` and
  :meth:`~repro.core.cost_matrix.CostMatrix.recompute` batch goes through.

The scalar cost model stays the paper-faithful parity oracle.
"""

from __future__ import annotations

from repro.kernel.arrays import (
    find_cached_arrays,
    get_stat_arrays,
    remember_stat_arrays,
)
from repro.kernel.evaluate import evaluate_rows
from repro.obs.recorder import NULL_RECORDER


def compute_rows(
    stats,
    load,
    organizations,
    rows,
    range_selectivity=None,
    arrays=None,
    *,
    recorder=NULL_RECORDER,
):
    """Price matrix rows with the columnar kernel.

    Returns a :class:`~repro.kernel.evaluate.RowCosts`: one
    ``(len(rows) × len(organizations))`` float64 array per cost component
    (``query``, ``insert``, ``delete``, ``cmd``, the CMD ``rate``,
    ``storage`` and ``total``), rows in request order and columns in
    organization order. Every slot is bit-identical to the matching field
    of :func:`~repro.costmodel.subpath.subpath_processing_cost`.
    ``arrays`` optionally supplies a pre-lowered (or workload-patched)
    :class:`~repro.kernel.arrays.StatArrays` for these inputs.
    ``recorder`` receives one ``kernel.fold.<organization>`` span per
    canonical organization priced and the ``kernel.entries`` count.
    """
    return evaluate_rows(
        stats,
        load,
        organizations,
        rows,
        range_selectivity,
        arrays=arrays,
        recorder=recorder,
    )


def lower(stats, load, range_selectivity=None):
    """The lowered :class:`StatArrays` for (stats, load), cache-backed.

    Used to lower once in the parent before a fork fan-out and to warm
    the persistent cache ahead of session loops.
    """
    return get_stat_arrays(stats, load, range_selectivity)


def cached_lowering(stats, load, range_selectivity=None):
    """The cached lowering for exactly (stats, load), or ``None``.

    Never lowers: a cheap probe for the dirty-slice recompute path,
    which only pays for a workload patch when a base lowering already
    exists.
    """
    return find_cached_arrays(stats, load, range_selectivity)


def patch_lowering(arrays, load):
    """Re-key a lowering to a drifted workload and retain it.

    Shares every stats-derived table of ``arrays`` by reference and
    rebuilds only the load-derived columns (see
    :meth:`~repro.kernel.arrays.StatArrays.patched`); the patched
    lowering joins the persistent cache so consecutive what-if steps
    chain patches instead of re-lowering.
    """
    patched = arrays.patched(load)
    remember_stat_arrays(patched)
    return patched


__all__ = [
    "compute_rows",
    "lower",
    "cached_lowering",
    "patch_lowering",
]
