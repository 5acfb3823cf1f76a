"""Parity and counter pins for the kernel dirty-slice recompute.

``CostMatrix.recompute`` routes dirty-row sets through the columnar
kernel as array-slice re-evaluations over cached (or freshly patched)
lowerings. These tests pin the contract two ways:

* **bit-identity** — a recomputed matrix equals the scalar oracle
  (:func:`conftest.oracle_matrix`) over the new inputs for every
  organization, across Hypothesis-driven perturbation batches;
* **counters** — ``RecomputeReport.kernel_slice_rows`` counts exactly
  the kernel-priced rows and ``kernel_fallback_reason`` names why any
  dirty rows were left to the scalar oracle (range-ending rows).
"""

from conftest import assert_same_bits, oracle_matrix
from hypothesis import given, settings
from hypothesis import strategies as st
from test_kernel_parity import (
    assert_matrices_identical,
    make_world,
    perturb_load,
    perturb_stats,
)

from repro.core.cost_matrix import CostMatrix
from repro.obs import Recorder


def small_world():
    """A six-row world: dirty sets of a handful of rows."""
    return make_world(length=3, subclasses=(0, 0, 0))


perturbation_batches = st.lists(
    st.tuples(
        st.sampled_from(["L0", "L1", "L2", "L3", "L4"]),
        st.sampled_from(["query", "insert", "delete", "stats"]),
        st.floats(min_value=0.25, max_value=4.0),
    ),
    min_size=1,
    max_size=3,
)


class TestDirtySliceBitIdentity:
    @given(batch=perturbation_batches)
    @settings(max_examples=15, deadline=None)
    def test_recompute_matches_fresh_build(self, batch):
        """recompute(dirty) == the scalar oracle, all orgs."""
        stats, load = make_world()
        matrix = CostMatrix.compute(stats, load, include_noindex=True)
        new_stats, new_load = stats, load
        for class_name, component, factor in batch:
            if component == "stats":
                new_stats = perturb_stats(new_stats, class_name, factor)
            else:
                new_load = perturb_load(new_load, class_name, component, factor)
        recomputed = matrix.recompute(stats=new_stats, load=new_load)
        assert_matrices_identical(
            recomputed, oracle_matrix(new_stats, new_load, include_noindex=True)
        )
        report = recomputed.recompute_report
        assert report.kernel_slice_rows == len(report.recomputed_rows)
        assert report.kernel_fallback_reason is None

    def test_chained_drifts_keep_slicing_through_patched_lowerings(self):
        """Consecutive steps chain workload patches: every step stays on
        the kernel (the previous step's patched lowering is found in the
        persistent cache) and stays bit-identical to the scalar oracle."""
        stats, load = make_world(length=8)
        matrix = CostMatrix.compute(stats, load)
        current = load
        for step, factor in enumerate((1.5, 0.5, 3.0), start=1):
            current = perturb_load(current, "L3", "query", factor)
            matrix = matrix.recompute(load=current)
            report = matrix.recompute_report
            assert report.kernel_sliced, f"step {step} fell off the kernel"
            assert report.kernel_slice_rows == len(report.recomputed_rows)
            assert_matrices_identical(matrix, oracle_matrix(stats, current))


class TestKernelSliceCounters:
    def test_cached_lowering_lifts_the_threshold(self):
        """A dirty set of a handful of rows rides the kernel over the
        lowering the build left in the persistent cache."""
        stats, load = small_world()
        matrix = CostMatrix.compute(stats, load)
        recomputed = matrix.recompute(
            load=perturb_load(load, "L1", "insert", 2.0)
        )
        report = recomputed.recompute_report
        assert report.kernel_sliced
        assert report.kernel_slice_rows == len(report.recomputed_rows)
        assert report.kernel_fallback_reason is None
        assert (
            f"({report.kernel_slice_rows} kernel-sliced)"
            in report.describe()
        )

    def test_range_ending_rows_report_the_legacy_oracle(self):
        """Under a range predicate, rows ending at the path's last
        attribute are priced by the scalar oracle; a dirty set made of
        only those rows reports the oracle as its fallback."""
        stats, load = make_world()
        matrix = CostMatrix.compute(stats, load, range_selectivity=0.4)
        new_load = perturb_load(load, "L4", "insert", 2.0)
        recomputed = matrix.recompute(load=new_load)
        report = recomputed.recompute_report
        assert report.recomputed_rows
        assert all(end == stats.length for _s, end in report.recomputed_rows)
        assert report.kernel_slice_rows == 0
        assert report.kernel_fallback_reason == (
            "all dirty rows end at the path's last attribute under a "
            "range predicate (scalar oracle)"
        )
        assert "(scalar: all dirty rows end" in report.describe()
        assert_matrices_identical(
            recomputed, oracle_matrix(stats, new_load, range_selectivity=0.4)
        )

    def test_stats_change_relowers_and_slices(self):
        """New statistics invalidate every cached lowering; the dirty set
        still prices on the kernel via a fresh one."""
        stats, load = make_world()
        matrix = CostMatrix.compute(stats, load)
        recomputed = matrix.recompute(stats=perturb_stats(stats, "L2", 1.7))
        report = recomputed.recompute_report
        assert report.kernel_sliced
        assert report.kernel_fallback_reason is None

    def test_sibling_branches_keep_patching_a_warm_lowering(self):
        """Eight what-if branches off one matrix. From the fifth on, the
        siblings' patched lowerings have evicted the base's own from the
        bounded cache; a branch then patches the newest lowering of the
        same statistics instead of lowering cold, and every branch stays
        bit-identical to a fresh build of its inputs."""

        def branch_loads(load):
            return [
                perturb_load(
                    load, f"L{level}", ("query", "insert", "delete")[level % 3],
                    1.5,
                )
                for level in range(4, 12)
            ]

        stats, load = make_world(length=12)
        matrix = CostMatrix.compute(stats, load)
        recorder = Recorder()
        branches = [
            matrix.recompute(load=branch, recorder=recorder)
            for branch in branch_loads(load)
        ]
        counters = recorder.profile()["metrics"]["counters"]
        assert counters.get("kernel.lowering_cache.misses", 0) == 0
        assert counters["kernel.lowering_cache.hits"] == 8
        fresh_stats, fresh_load = make_world(length=12)
        for branch, fresh in zip(branches, branch_loads(fresh_load)):
            assert_same_bits(branch, CostMatrix.compute(fresh_stats, fresh))
