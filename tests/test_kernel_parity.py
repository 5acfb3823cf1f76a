"""Parity pins for the columnar numpy kernel.

The columnar kernel (``repro.kernel``) prices every matrix and must be
*bit-identical* to the scalar cost model it vectorizes — same entry
values, same breakdowns, same row minima, under every configuration knob
the matrix exposes. These tests pin that contract against the scalar
oracle (:func:`conftest.oracle_matrix`) with Hypothesis-driven random
worlds, cover the dirty-row recompute path and the ``npa_array``
primitive against its scalar counterpart, and pin the single-engine
surface: no public entry point takes an engine selector, the kernel
exports a closed set of names, and the auto-parallel threshold.
"""

import dataclasses
import inspect
import math
import random
import warnings
from unittest import mock

import numpy
import pytest
from conftest import assert_same_bits, make_nix_heavy_world, oracle_matrix
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import kernel
from repro.cli import build_parser
from repro.core import cost_matrix
from repro.core.advisor import advise
from repro.core.cost_matrix import PARALLEL_AUTO_MIN_LENGTH, CostMatrix
from repro.core.multipath import (
    MultiPathResult,
    PathWorkload,
    build_fleet,
    optimize_multipath,
)
from repro.costmodel.params import ClassStats, CostModelConfig, PathStatistics
from repro.costmodel.yao import _EXACT_LIMIT, npa
from repro.kernel import yao_vec
from repro.kernel.evaluate import RowCosts
from repro.kernel.yao_vec import npa_array
from repro.model.path import Path
from repro.obs import Recorder
from repro.organizations import (
    ALL_ORGANIZATIONS,
    CONFIGURABLE_ORGANIZATIONS,
    EXTENDED_ORGANIZATIONS,
    IndexOrganization,
    canonical_organization,
)
from repro.paper import figure7_load, figure7_statistics
from repro.storage.sizes import SizeModel
from repro.synth import LevelSpec, linear_path_schema
from repro.whatif import AdvisorSession, MultiPathSession
from repro.workload.generator import WorkloadGenerator
from repro.workload.load import LoadDistribution, LoadTriplet


def make_world(
    length=5,
    subclasses=(0, 1, 0, 2, 0),
    objects=40_000,
    fanout=1.0,
    query=0.3,
    insert=0.1,
    delete=0.05,
):
    levels = [
        LevelSpec(f"L{i}", subclasses=subclasses[i % len(subclasses)])
        for i in range(length)
    ]
    _schema, path = linear_path_schema(levels)
    per_class = {}
    remaining = objects
    for position in range(1, length + 1):
        for member in path.hierarchy_at(position):
            per_class[member] = ClassStats(
                objects=remaining,
                distinct=max(10, remaining // 6),
                fanout=fanout,
            )
        remaining = max(50, remaining // 5)
    stats = PathStatistics(path, per_class)
    load = LoadDistribution.uniform(
        path, query=query, insert=insert, delete=delete
    )
    return stats, load


def assert_matrices_identical(left: CostMatrix, right: CostMatrix) -> None:
    assert left.length == right.length
    assert left.organizations == right.organizations
    for start, end in left.rows():
        for organization in left.organizations:
            assert left.cost(start, end, organization) == right.cost(
                start, end, organization
            ), (start, end, organization)
            left_breakdown = left.breakdown(start, end, organization)
            right_breakdown = right.breakdown(start, end, organization)
            assert left_breakdown == right_breakdown, (
                start,
                end,
                organization,
            )
        left_min = left.min_cost(start, end)
        right_min = right.min_cost(start, end)
        assert left_min.cost == right_min.cost
        assert left_min.organization is right_min.organization


def perturb_load(load, class_name, component, factor):
    triplets = {}
    for name, triplet in load.items():
        if name == class_name:
            values = {
                "query": triplet.query,
                "insert": triplet.insert,
                "delete": triplet.delete,
            }
            values[component] = values[component] * factor + 0.01
            triplet = LoadTriplet(**values)
        triplets[name] = triplet
    return LoadDistribution(load.path, triplets)


def perturb_stats(stats, class_name, factor):
    per_class = {}
    for position in range(1, stats.length + 1):
        for member in stats.members(position):
            current = stats.stats_of(member)
            if member == class_name:
                current = ClassStats(
                    objects=current.objects * factor,
                    distinct=max(1.0, current.distinct * factor),
                    fanout=current.fanout,
                )
            per_class[member] = current
    return PathStatistics(stats.path, per_class, stats.config)


world_strategy = st.fixed_dictionaries(
    {
        "length": st.integers(min_value=2, max_value=10),
        "subclasses": st.tuples(
            st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)
        ),
        "objects": st.sampled_from([900, 25_000, 400_000]),
        "fanout": st.sampled_from([1.0, 1.5, 4.0]),
        "query": st.floats(min_value=0.0, max_value=2.0),
        "insert": st.floats(min_value=0.0, max_value=1.0),
        "delete": st.floats(min_value=0.0, max_value=1.0),
    }
)


#: Cost-model configurations of the range-predicate property: the
#: defaults, pinned retrieval pages, and pages small enough that most
#: NIX/PX/NX records of range-ending rows span several pages.
RANGE_CONFIGS = [
    CostModelConfig(),
    CostModelConfig(pr_mx=2.0, pr_mix=3.0, pr_nix=1.0),
    CostModelConfig(sizes=SizeModel(page_size=256)),
    CostModelConfig(sizes=SizeModel(page_size=512)),
]


class TestColumnarMatchesLegacy:
    """The kernel-built matrix against the scalar oracle."""

    @given(world=world_strategy)
    @settings(max_examples=25, deadline=None)
    def test_random_worlds_bit_identical(self, world):
        stats, load = make_world(**world)
        scalar = oracle_matrix(stats, load, include_noindex=True)
        columnar = CostMatrix.compute(stats, load, include_noindex=True)
        assert_matrices_identical(scalar, columnar)

    def test_length_40_bit_identical(self):
        """The benchmark's own shape: every org, all 820 rows."""
        stats, load = make_world(length=40, objects=400_000)
        scalar = oracle_matrix(stats, load, include_noindex=True)
        columnar = CostMatrix.compute(stats, load, include_noindex=True)
        assert_matrices_identical(scalar, columnar)

    def test_length_30_nix_heavy_world_bit_identical(self):
        """A long world shaped like the benchmark's: 0/1/2 subclasses and
        set-valued levels, so NIX deletions climb parent chains of up to
        28 levels and SA1 prices staircases far past 64 steps."""
        stats, load = make_nix_heavy_world(length=30, seed=7)
        scalar = oracle_matrix(stats, load, EXTENDED_ORGANIZATIONS)
        columnar = CostMatrix.compute(
            stats, load, EXTENDED_ORGANIZATIONS, workers=0
        )
        assert_matrices_identical(scalar, columnar)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"pmd_nix": 40.0, "pmi_nix": 1.0},
            {"pmd_nix": 3.0, "pmi_nix": 3.0, "pm_ax": 2.0, "pr_nix": 5.0},
        ],
    )
    def test_page_overrides_bit_identical(self, overrides):
        """The pr/pm overrides on the Figure 7 path, whose NIX primary
        records span pages: deletion and insertion price their primary
        rewrites apart exactly when pmd and pmi differ."""
        load = figure7_load()
        stats = figure7_statistics(CostModelConfig(**overrides), load.path)
        scalar = oracle_matrix(stats, load, ALL_ORGANIZATIONS)
        columnar = CostMatrix.compute(stats, load, ALL_ORGANIZATIONS)
        assert_matrices_identical(scalar, columnar)

    @pytest.mark.parametrize("selectivity", [0.05, 0.5, 1.0])
    def test_range_selectivity_bit_identical(self, selectivity):
        stats, load = make_world(length=6, subclasses=(0, 2, 0, 1, 0, 0))
        scalar = oracle_matrix(
            stats, load, range_selectivity=selectivity, include_noindex=True
        )
        columnar = CostMatrix.compute(
            stats, load, range_selectivity=selectivity, include_noindex=True
        )
        assert_matrices_identical(scalar, columnar)

    @given(
        length=st.integers(min_value=1, max_value=9),
        seed=st.integers(min_value=0, max_value=2**16),
        selectivity=st.sampled_from([0.0, 0.003, 0.1, 0.5, 1.0]),
        config=st.sampled_from(RANGE_CONFIGS),
    )
    @settings(max_examples=40, deadline=None)
    def test_range_rows_match_the_oracle(self, length, seed, selectivity, config):
        """Range predicates on random worlds with subclasses and
        set-valued levels, every organization plus SIX/IIX: all seven
        component arrays, the range-ending rows' leaf walks included,
        equal the scalar oracle's."""
        stats, load = make_nix_heavy_world(length, seed)
        stats = PathStatistics(
            stats.path,
            {name: stats.stats_of(name) for name in stats.path.scope},
            config,
        )
        organizations = (
            *ALL_ORGANIZATIONS, IndexOrganization.SIX, IndexOrganization.IIX
        )
        assert_same_bits(
            CostMatrix.compute(
                stats, load, organizations,
                range_selectivity=selectivity, workers=0,
            ),
            oracle_matrix(
                stats, load, organizations, range_selectivity=selectivity
            ),
        )

    def test_auto_matches_explicit_kernels(self):
        """The default build (paper organizations, fresh statistics)."""
        stats, load = make_world()
        assert_matrices_identical(
            CostMatrix.compute(stats, load),
            oracle_matrix(make_world()[0], load),
        )

    def test_columnar_workers_match_serial(self):
        stats, load = make_world(length=8)
        serial = CostMatrix.compute(stats, load, workers=0)
        parallel = CostMatrix.compute(
            make_world(length=8)[0], load, workers=2
        )
        assert_matrices_identical(serial, parallel)


class TestRecomputeParity:
    @given(
        batch=st.lists(
            st.tuples(
                st.sampled_from(["L0", "L1", "L2", "L3", "L4"]),
                st.sampled_from(["query", "insert", "delete", "stats"]),
                st.floats(min_value=0.25, max_value=4.0),
            ),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_perturbation_batches_match_fresh_compute(self, batch):
        stats, load = make_world()
        matrix = CostMatrix.compute(stats, load)
        new_stats, new_load = stats, load
        for class_name, component, factor in batch:
            if component == "stats":
                new_stats = perturb_stats(new_stats, class_name, factor)
            else:
                new_load = perturb_load(new_load, class_name, component, factor)
        recomputed = matrix.recompute(stats=new_stats, load=new_load)
        assert_matrices_identical(
            recomputed, oracle_matrix(new_stats, new_load)
        )


@st.composite
def yao_batches(draw):
    """1-400 ``(t, n, m)`` triples drawn with repetition from up to 40
    distinct ones over up to 12 ``(n, m)`` groups, ``t`` covering the
    short loop, the 63/64 switch, long staircases (integral and
    fractional), staircases ending just below ``n`` (whose strip padding
    would reach a zero or negative denominator) and Cardenas territory
    beyond the exact limit."""
    groups = draw(
        st.lists(
            st.tuples(
                st.one_of(
                    st.floats(min_value=200.0, max_value=300_000.0),
                    st.integers(min_value=200, max_value=300_000).map(float),
                ),
                st.floats(min_value=1.05, max_value=2_000.0),
            ),
            min_size=1,
            max_size=12,
        )
    )
    triples = []
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        n, ratio = draw(st.sampled_from(groups))
        m = max(1.0, n / ratio)
        regime = draw(
            st.sampled_from(["short", "switch", "long", "top", "cardenas"])
        )
        if regime == "top":
            t = draw(st.floats(min_value=max(64.0, n - n / m - 3.0), max_value=n))
        elif regime == "short":
            t = draw(st.floats(min_value=0.0, max_value=64.0))
        elif regime == "switch":
            t = draw(st.integers(min_value=62, max_value=65)) + draw(
                st.sampled_from([0.0, 0.25, 0.5, 0.999])
            )
        elif regime == "long":
            t = draw(st.floats(min_value=64.0, max_value=min(n, 60_000.0)))
            if draw(st.booleans()):
                t = float(math.floor(t))
        else:
            t = draw(
                st.floats(min_value=_EXACT_LIMIT, max_value=1.5 * _EXACT_LIMIT)
            )
        triples.append((t, n, m))
    return draw(st.lists(st.sampled_from(triples), min_size=1, max_size=400))


class TestNpaArray:
    @given(
        t=st.floats(min_value=0.0, max_value=250_000.0),
        n=st.floats(min_value=1.0, max_value=1e7),
        ratio=st.floats(min_value=1.0, max_value=1e4),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_npa(self, t, n, ratio):
        m = max(1.0, n / ratio)
        t = min(t, n)
        expected = npa(t, n, m)
        got = npa_array(
            numpy.array([t]), numpy.array([n]), numpy.array([m])
        )
        assert got[0] == expected, (t, n, m)

    @given(batch=yao_batches(), strip=st.sampled_from([None, 256]))
    @example(
        # The short staircase ends at step 997 inside the long one's
        # strip; its padding would pass n + 1 = 1001, a zero denominator.
        batch=[(40_000.0, 50_000.0, 1_250.0), (997.0, 1_000.0, 1_000.0 / 1.05)],
        strip=None,
    )
    @settings(max_examples=60, deadline=None)
    def test_batches_over_many_groups_match_scalar(self, batch, strip):
        """Batches of repeated triples over many (n, m) groups: the
        staircases climb side by side through several strips, end in
        different ones, and straddle the 63/64 and exact-limit switches.
        ``strip`` optionally shrinks the strip size so even short
        staircases cross many strips. Elementwise equal to the scalar,
        without numpy warnings."""
        t, n, m = (numpy.array(column) for column in zip(*batch))
        expected = numpy.array([npa(*triple) for triple in batch])
        factors = yao_vec._STRIP_FACTORS if strip is None else strip
        with mock.patch.object(yao_vec, "_STRIP_FACTORS", factors):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                got = npa_array(t, n, m)
        mismatched = numpy.flatnonzero(got != expected)
        assert mismatched.size == 0, [batch[i] for i in mismatched[:5]]

    def test_grouped_big_region_matches_scalar(self):
        """Many elements sharing (n, m) with floor(t) >= 64 — the grouped
        staircase branch — must reproduce the scalar numpy-product path."""
        n, m = 500_000.0, 125.0
        t = numpy.linspace(64.0, 99_999.0, 301)
        expected = numpy.array([npa(float(v), n, m) for v in t])
        got = npa_array(t, numpy.full(t.shape, n), numpy.full(t.shape, m))
        assert (got == expected).all()

    def test_boundary_and_cardenas_regions_match_scalar(self):
        """floor(t) == 63 (scalar Python loop) and t > exact limit
        (Cardenas approximation) stay on the scalar fallback."""
        cases = [
            (63.0, 10_000.0, 40.0),
            (63.9, 10_000.0, 40.0),
            (150_000.0, 1e6, 300.0),
        ]
        t, n, m = (numpy.array(column) for column in zip(*cases))
        expected = numpy.array(
            [npa(*case) for case in cases]
        )
        assert (npa_array(t, n, m) == expected).all()


def make_chain_fleet(seed, levels, starts, config=None, changed=None):
    """Suffix paths of one seeded chain, shaped like
    ``conftest.make_suffix_fleet`` but with subclasses and set-valued
    levels: ``levels`` holds one ``(subclasses, multi_valued)`` pair per
    level and ``starts`` the level each path starts at (a repeat
    duplicates a path; ``-k`` is the prefix ending ``k`` levels early).
    Each path gets its own statistics object and mixed load, in a seeded
    shuffled order. ``config`` applies to the paths after the first;
    ``changed`` names a class whose statistics those paths see scaled.
    The same arguments always build equal, fresh objects."""
    rng = random.Random(seed)
    specs = [
        LevelSpec(f"L{index}", subclasses=subclasses, multi_valued=multi_valued)
        for index, (subclasses, multi_valued) in enumerate(levels)
    ]
    schema, full_path = linear_path_schema(specs)
    per_class = {}
    objects = rng.uniform(2e4, 2e5)
    for position, spec in enumerate(specs, start=1):
        for name in full_path.hierarchy_at(position):
            share = 1.0 if name == spec.name else rng.uniform(0.1, 0.5)
            count = max(50, round(objects * share))
            fanout = rng.uniform(1.5, 3.0) if spec.multi_valued else 1.0
            distinct = max(10, round(count * fanout / rng.uniform(2.0, 10.0)))
            per_class[name] = ClassStats(
                objects=count, distinct=distinct, fanout=fanout
            )
        objects = max(100.0, objects / rng.uniform(1.5, 4.0))
    altered = dict(per_class)
    if changed is not None:
        current = per_class[changed]
        altered[changed] = ClassStats(
            objects=current.objects * 2,
            distinct=current.distinct,
            fanout=current.fanout,
        )
    fleet = []
    for index, start in enumerate(starts):
        names = full_path.attribute_names
        if start >= 0:
            path = Path(schema, f"L{start}", names[start:])
        else:
            path = Path(schema, "L0", names[:start])
        stats = PathStatistics(
            path,
            {name: (altered if index else per_class)[name] for name in path.scope},
            config if index else None,
        )
        load = WorkloadGenerator(rng.randrange(2**31)).mixed(
            path, query_weight=2.0, update_weight=1.0
        )
        fleet.append(PathWorkload(stats, load))
    rng.shuffle(fleet)
    return fleet


def build_with_adoption(fleet, organizations, range_selectivity, **options):
    """The fleet's matrices through ``build_fleet``, and the units it
    reports adopted."""
    recorder = Recorder()
    matrices = build_fleet(
        fleet,
        lambda workload: CostMatrix.compute(
            workload.stats,
            workload.load,
            organizations,
            range_selectivity=options.get("built_selectivity", range_selectivity),
            workers=options.get("workers", 0),
        ),
        range_selectivity=range_selectivity,
        recorder=recorder,
    )
    counters = recorder.profile()["metrics"]["counters"]
    return matrices, counters.get("kernel.units_adopted", 0)


def assert_same_as_standalone(matrices, fleet, organizations, range_selectivity):
    """Each matrix equals a standalone build on fresh objects, all seven
    component arrays."""
    for matrix, workload in zip(matrices, fleet):
        standalone = CostMatrix.compute(
            workload.stats,
            workload.load,
            organizations,
            range_selectivity=range_selectivity,
            workers=0,
        )
        for name, mine, theirs in zip(
            RowCosts._fields, matrix._costs, standalone._costs
        ):
            assert numpy.array_equal(mine, theirs), name


def kernel_rows(length):
    """Rows a full build prices in the kernel: every row, under any
    range selectivity."""
    return length * (length + 1) // 2


class TestSuffixUnitAdoption:
    """Suffix paths adopt their longest path's statistics-only units
    (``build_fleet``), and every matrix stays bit-identical to a
    standalone build."""

    @given(
        seed=st.integers(0, 2**16),
        levels=st.lists(
            st.tuples(st.integers(0, 2), st.booleans()), min_size=2, max_size=7
        ),
        paths=st.integers(1, 5),
        organizations=st.sampled_from(
            [ALL_ORGANIZATIONS, CONFIGURABLE_ORGANIZATIONS]
        ),
        range_selectivity=st.sampled_from([None, 0.1]),
    )
    @settings(max_examples=30, deadline=None)
    def test_fleet_matrices_match_standalone_builds(
        self, seed, levels, paths, organizations, range_selectivity
    ):
        paths = min(paths, len(levels))
        # One path repeats: the duplicate adopts at offset 0.
        starts = [*range(paths), seed % paths]
        fleet = make_chain_fleet(seed, levels, starts)
        matrices, adopted = build_with_adoption(
            fleet, organizations, range_selectivity
        )
        assert_same_as_standalone(
            matrices, make_chain_fleet(seed, levels, starts),
            organizations, range_selectivity,
        )
        # Every path is a suffix of the full chain: all but one adopt.
        canonicals = len(set(map(canonical_organization, organizations)))
        lengths = [workload.stats.length for workload in fleet]
        assert adopted == canonicals * (
            sum(kernel_rows(length) for length in lengths)
            - kernel_rows(max(lengths))
        )
        if range_selectivity is None:
            # Fresh objects on both sides: a lowering cached on ``fleet``
            # would already hold every unit.
            standalone = [
                CostMatrix.compute(
                    workload.stats, workload.load, organizations, workers=0
                )
                for workload in make_chain_fleet(seed, levels, starts)
            ]
            options = {"organizations": organizations, "beam_width": 4}
            assert_same_result(
                optimize_multipath(
                    make_chain_fleet(seed, levels, starts), **options
                ),
                optimize_multipath(fleet, matrices=standalone, **options),
            )

    @pytest.mark.parametrize(
        "case",
        ["class statistics", "config", "range selectivity", "prefix", "pool"],
    )
    def test_non_suffixes_adopt_nothing(self, case):
        """A changed class, another cost-model configuration, units
        priced at another selectivity, a prefix path (same start, earlier
        end) and a worker-pool build each adopt nothing and still match
        standalone builds."""
        levels = [(1, False), (0, True), (2, False), (0, False), (1, True)]
        starts = {"prefix": [0, -2]}.get(case, [0, 2])
        options = {
            "class statistics": {"changed": "L3"},
            "config": {"config": CostModelConfig(clamp_cardinalities=False)},
        }.get(case, {})
        build = {
            "range selectivity": {"built_selectivity": 0.1},
            "pool": {"workers": 2},
        }.get(case, {})
        selectivity = build.get("built_selectivity")
        fleet = make_chain_fleet(5, levels, starts, **options)
        matrices, adopted = build_with_adoption(
            fleet, ALL_ORGANIZATIONS, None, **build
        )
        assert adopted == 0
        assert_same_as_standalone(
            matrices, make_chain_fleet(5, levels, starts, **options),
            ALL_ORGANIZATIONS, selectivity,
        )

    def test_sessions_adopt_like_matrices(self):
        """``MultiPathSession.from_workloads`` builds its sessions through
        the same helper."""
        levels = [(1, False), (0, True), (2, False), (0, False), (1, True)]
        starts = [0, 1, 3, 1]
        recorder = Recorder()
        sessions = MultiPathSession.from_workloads(
            make_chain_fleet(9, levels, starts), recorder=recorder
        )
        counters = recorder.profile()["metrics"]["counters"]
        lengths = [session.stats.length for session in sessions.sessions]
        assert counters["kernel.units_adopted"] == 3 * (
            sum(kernel_rows(length) for length in lengths)
            - kernel_rows(5)
        )
        assert_same_as_standalone(
            [session.matrix for session in sessions.sessions],
            make_chain_fleet(9, levels, starts),
            CONFIGURABLE_ORGANIZATIONS, None,
        )


def assert_same_result(left: MultiPathResult, right: MultiPathResult) -> None:
    """Every field equal, floats compared by ``repr``."""
    for field in dataclasses.fields(MultiPathResult):
        assert repr(getattr(left, field.name)) == repr(
            getattr(right, field.name)
        ), field.name


class TestKernelResolution:
    def test_unknown_kernel_rejected(self, capsys):
        """One engine: no public entry point or CLI subcommand takes an
        engine selector, so every kernel name is rejected."""
        for function in (
            advise,
            CostMatrix.compute,
            CostMatrix.recompute,
            optimize_multipath,
            AdvisorSession,
        ):
            assert "kernel" not in inspect.signature(function).parameters
        stats, load = make_world(length=2, subclasses=(0, 0))
        with pytest.raises(TypeError, match="kernel"):
            CostMatrix.compute(stats, load, kernel="columnar")
        parser = build_parser()
        for command in ("advise", "matrix", "multipath", "whatif", "replay"):
            with pytest.raises(SystemExit):
                parser.parse_args([command, "--help"])
            assert "--kernel" not in capsys.readouterr().out

    def test_kernel_names_are_closed(self):
        """The kernel's public surface, read by checkpoints and the
        benchmark's per-layer trace, stays exactly these four names."""
        assert kernel.__all__ == [
            "compute_rows",
            "lower",
            "cached_lowering",
            "patch_lowering",
        ]

    def test_auto_resolution_thresholds(self, monkeypatch):
        """``workers=None`` stays serial below a length-60 matrix and
        fans out one worker per usable CPU from there; explicit counts
        win."""

        def usable(cpus):
            # An 8-CPU host whose affinity mask allows ``cpus`` of them.
            monkeypatch.setattr(
                cost_matrix.os,
                "sched_getaffinity",
                lambda pid: set(range(cpus)),
                raising=False,
            )
            monkeypatch.setattr(cost_matrix.os, "cpu_count", lambda: 8)

        usable(4)
        resolve = CostMatrix._resolve_workers
        threshold = PARALLEL_AUTO_MIN_LENGTH * (PARALLEL_AUTO_MIN_LENGTH + 1) // 2
        assert PARALLEL_AUTO_MIN_LENGTH == 60
        assert resolve(None, threshold - 1) == 1
        assert resolve(None, threshold) == 4
        assert resolve(0, threshold) == 1
        assert resolve(2, 10_000) == 2
        # Pinned to one CPU (taskset, a cpuset): auto stays serial.
        usable(1)
        assert resolve(None, threshold) == 1
        # Platforms without affinity support size the pool by the host.
        monkeypatch.delattr(cost_matrix.os, "sched_getaffinity", raising=False)
        assert resolve(None, threshold) == 8
