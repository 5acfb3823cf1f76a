"""The NIX delete-chain SA1/SA2 retrieval, warm against cold.

The parent-oid retrieval of the NIX deletion algorithm — ``min(SA1,
SA2)`` Yao estimates over the auxiliary-index leaf profile — walks the
statistics' fan-in caches. These tests pin that the scalar delete cost
does not depend on whether those caches are warm, and that the columnar
kernel (which batches the same estimates) matches the scalar oracle.
"""

from conftest import oracle_matrix

from repro.core.cost_matrix import CostMatrix
from repro.costmodel.nix import NIXCostModel
from repro.costmodel.params import ClassStats, PathStatistics
from repro.synth import LevelSpec, linear_path_schema
from repro.workload.load import LoadDistribution


def make_stats(length=6, subclasses=(0, 2, 0, 1, 0, 0)):
    levels = [
        LevelSpec(f"L{i}", subclasses=subclasses[i % len(subclasses)])
        for i in range(length)
    ]
    _schema, path = linear_path_schema(levels)
    per_class = {}
    remaining = 30_000
    for position in range(1, length + 1):
        for member in path.hierarchy_at(position):
            per_class[member] = ClassStats(
                objects=remaining, distinct=max(10, remaining // 4), fanout=1.0
            )
        remaining = max(60, remaining // 4)
    return PathStatistics(path, per_class)


class TestRetrievalTabulation:
    def test_delete_cost_bit_identical_with_and_without_cache(self):
        """Every NIX delete cost on statistics whose caches a full matrix
        build has warmed equals the same cost on fresh statistics."""
        warm_stats = make_stats()
        CostMatrix.compute(
            warm_stats,
            LoadDistribution.uniform(warm_stats.path, 0.3, 0.1, 0.1),
            include_noindex=True,
        )
        length = warm_stats.length
        for start in range(1, length + 1):
            for end in range(start, length + 1):
                warm_model = NIXCostModel(warm_stats, start, end)
                cold_model = NIXCostModel(make_stats(), start, end)
                for position in range(start, end + 1):
                    for member in warm_stats.members(position):
                        assert warm_model.delete_cost(
                            position, member
                        ) == cold_model.delete_cost(position, member), (
                            start,
                            end,
                            position,
                            member,
                        )

    def test_matrix_bit_identical_with_and_without_cache(self):
        """The kernel matrix (cached lowering) against the scalar oracle
        over fresh statistics."""
        stats = make_stats()
        load = LoadDistribution.uniform(stats.path, 0.3, 0.15, 0.2)
        kernel = CostMatrix.compute(stats, load)
        fresh = make_stats()
        scalar = oracle_matrix(
            fresh, LoadDistribution.uniform(fresh.path, 0.3, 0.15, 0.2)
        )
        for start, end in kernel.rows():
            for organization in kernel.organizations:
                assert kernel.cost(start, end, organization) == scalar.cost(
                    start, end, organization
                )
