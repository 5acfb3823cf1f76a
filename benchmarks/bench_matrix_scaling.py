"""Section 5 size claim and the PR 2 construction speedups.

"Because in practice a path has rarely a length greater than 7 the
complexity is determined by the expression 3 * O(n(n+1)/2) which is the
size of the matrix." The benchmark measures Cost_Matrix computation time
across path lengths, verifies the entry-count formula, and times a
dynamic-program search over the array-backed matrix (every ``min_cost``
is an O(1) read of the precomputed row minima).

``test_construction_speedups`` additionally proves three construction
wins on a length-30 path — the serial kernel build against the scalar
oracle pricing every entry one at a time, worker-pool parity, and
incremental recompute —
sharing the measurement code with :mod:`benchmarks.run_all` (which writes
the machine-readable ``BENCH_costmatrix.json``).
"""

from benchmarks.conftest import write_report
from benchmarks.run_all import (
    make_inputs,
    perturb_ending_insert,
    time_compute,
    time_incremental,
    time_scalar_oracle,
)
from repro.core.cost_matrix import CostMatrix
from repro.reporting.tables import ascii_table
from repro.search import get_strategy

LENGTHS = [2, 3, 4, 5, 6, 7, 8, 10, 12]

#: Length of the speedup measurements (the ROADMAP's problem size).
SPEEDUP_LENGTH = 30

#: Generous regression floors: a serial kernel build on fresh inputs
#: against the per-entry scalar oracle (measured ~14x on a 2-CPU
#: runner), and incremental against full recompute. The assertions only
#: trip when a change genuinely slows the kernel or loses the dirty-row
#: analysis, not on CI noise.
MIN_SERIAL_SPEEDUP = 5.0
MIN_INCREMENTAL_SPEEDUP = 4.0


def test_matrix_entry_count_and_time(benchmark):
    import time

    rows = []

    dp = get_strategy("dynamic_program")

    def sweep():
        local_rows = []
        for length in LENGTHS:
            stats, load = make_inputs(length)
            started = time.perf_counter()
            matrix = CostMatrix.compute(stats, load)
            elapsed = (time.perf_counter() - started) * 1000
            expected_entries = 3 * length * (length + 1) // 2
            assert matrix.entry_count() == expected_entries
            started = time.perf_counter()
            result = dp.search(matrix)
            search_elapsed = (time.perf_counter() - started) * 1000
            assert result.extras["rows_inspected"] == matrix.row_count()
            local_rows.append(
                [
                    length,
                    matrix.row_count(),
                    expected_entries,
                    f"{elapsed:.1f}",
                    f"{search_elapsed:.2f}",
                ]
            )
        return local_rows

    rows = benchmark(sweep)
    report = ascii_table(
        [
            "path length",
            "rows n(n+1)/2",
            "entries 3*n(n+1)/2",
            "compute ms",
            "dp search ms",
        ],
        rows,
        title="Cost_Matrix size and computation time (Section 5 complexity claim)",
    )
    write_report("matrix_scaling", report)


def test_construction_speedups(benchmark):
    """Construction at length 30: kernel vs oracle, workers, incremental."""

    def measure():
        oracle_ms = time_scalar_oracle(SPEEDUP_LENGTH)
        serial_ms = time_compute(SPEEDUP_LENGTH, workers=0)
        parallel_ms = time_compute(SPEEDUP_LENGTH, workers=2, repeats=1)
        incremental = time_incremental(SPEEDUP_LENGTH)
        return oracle_ms, serial_ms, parallel_ms, incremental

    oracle_ms, serial_ms, parallel_ms, incremental = benchmark(measure)

    # Worker output is bit-identical to serial regardless of worker count.
    stats, load = make_inputs(SPEEDUP_LENGTH)
    serial_matrix = CostMatrix.compute(stats, load, workers=0)
    parallel_matrix = CostMatrix.compute(
        make_inputs(SPEEDUP_LENGTH)[0], load, workers=2
    )
    for start, end in serial_matrix.rows():
        for organization in serial_matrix.organizations:
            assert parallel_matrix.cost(start, end, organization) == (
                serial_matrix.cost(start, end, organization)
            )

    serial_speedup = oracle_ms / serial_ms
    assert serial_speedup >= MIN_SERIAL_SPEEDUP, (
        f"kernel build regressed: {serial_speedup:.1f}x vs the per-entry "
        f"scalar oracle (floor {MIN_SERIAL_SPEEDUP}x)"
    )
    assert incremental["speedup"] >= MIN_INCREMENTAL_SPEEDUP, (
        f"incremental recompute regressed: {incremental['speedup']:.1f}x "
        f"vs full recompute (floor {MIN_INCREMENTAL_SPEEDUP}x)"
    )
    # The dirty set of a single ending-class insert change is exactly the
    # rows ending at the last position.
    assert incremental["dirty_rows"] == SPEEDUP_LENGTH

    report = ascii_table(
        ["measurement", "ms", "speedup"],
        [
            ["scalar oracle, entry by entry", f"{oracle_ms:.1f}", "1.0x"],
            [
                "serial kernel build",
                f"{serial_ms:.1f}",
                f"{serial_speedup:.1f}x",
            ],
            [
                "2-worker pool (parity-checked)",
                f"{parallel_ms:.1f}",
                f"{oracle_ms / parallel_ms:.1f}x",
            ],
            [
                "full recompute after load change",
                f"{incremental['full_recompute_ms']:.1f}",
                "-",
            ],
            [
                "incremental recompute (dirty rows only)",
                f"{incremental['incremental_ms']:.1f}",
                f"{incremental['speedup']:.1f}x vs full",
            ],
        ],
        title=(
            f"Cost_Matrix construction speedups at length {SPEEDUP_LENGTH} "
            "(kernel, parallel, incremental)"
        ),
    )
    write_report("matrix_construction_speedups", report)
