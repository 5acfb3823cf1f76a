"""Columnar numpy evaluation kernel for the cost matrix.

``repro.kernel`` computes the full ``Cost_Matrix`` as array operations
over all (row, organization) pairs at once:

* :class:`~repro.kernel.arrays.StatArrays` lowers
  :class:`~repro.costmodel.params.PathStatistics` and a workload into
  contiguous per-position arrays (objects, distinct values, fanouts,
  probe-key chains, nin-bar chains, occupancy counts, extent pages);
  :func:`lower` is the one way to get a lowering;
* :mod:`~repro.kernel.evaluate` applies vectorized CRT/CMT/CRR formulas
  per organization over all subpath rows, folding the per-row sums in
  exactly the accumulation order of the scalar cost model so the
  resulting matrix is **bit-identical** to
  :func:`repro.costmodel.subpath.subpath_processing_cost` row by row;
* :func:`compute_rows` prices the rows of the lowering it is handed; it
  is the matrix engine every
  :meth:`repro.core.cost_matrix.CostMatrix.compute` and
  :meth:`~repro.core.cost_matrix.CostMatrix.recompute` batch goes through.

The scalar cost model stays the paper-faithful parity oracle.
"""

from __future__ import annotations

from repro.kernel.arrays import (
    StatArrays,
    find_cached_arrays,
    remember_stat_arrays,
)
from repro.kernel.evaluate import compute_rows
from repro.obs.recorder import NULL_RECORDER


def lower(stats, load, range_selectivity=None, recorder=NULL_RECORDER):
    """The lowered :class:`StatArrays` of exactly (stats, load, selectivity).

    Returns the lowering the statistics' persistent cache holds for these
    inputs, counted in ``kernel.lowering_cache.hits``. Otherwise it
    lowers them fresh in a ``kernel.lower`` span, counts a
    ``kernel.lowering_cache.misses`` and caches the result. It never
    patches another workload's lowering: workload identity is the cache
    key, and a drifted load reaches a warm lowering only through
    :func:`patch_lowering`.
    """
    found = find_cached_arrays(stats, load, range_selectivity)
    if found is not None:
        recorder.counter("kernel.lowering_cache.hits").add()
        return found
    recorder.counter("kernel.lowering_cache.misses").add()
    with recorder.span("kernel.lower", length=stats.length):
        arrays = StatArrays(stats, load, range_selectivity)
    remember_stat_arrays(arrays)
    return arrays


def cached_lowering(stats, load, range_selectivity=None):
    """The cached lowering for exactly (stats, load), or ``None``.

    Never lowers and counts nothing: the multi-path fleet build's probe
    for a longest path's lowering whose units its suffixes can adopt.
    """
    return find_cached_arrays(stats, load, range_selectivity)


def patch_lowering(arrays, load):
    """Re-key a lowering to a drifted workload and retain it.

    Shares every stats-derived table of ``arrays`` by reference and
    rebuilds only the load-derived columns (see
    :meth:`~repro.kernel.arrays.StatArrays.patched`); the patched
    lowering joins the persistent cache, where the next :func:`lower` of
    these inputs finds it, so consecutive what-if steps chain patches
    instead of re-lowering.
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
