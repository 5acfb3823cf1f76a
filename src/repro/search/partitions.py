"""Shared partition enumeration for every search strategy.

Section 5 derives the search-space size: a path of length ``n`` has
``n - 1`` gaps between consecutive classes, each of which either is a
subpath boundary or is not, hence ``2^(n-1)`` contiguous partitions
(recombinations). Every strategy in :mod:`repro.search` — and the
multi-path and storage-budget extensions — enumerates or indexes that
space through this module instead of hand-rolling its own loop.

:func:`top_configurations` ranks the same space instead of enumerating
it: the ``count`` cheapest configurations of one path, which the
multi-path selector (:mod:`repro.core.multipath`) uses as its candidate
generator so joint selection over many long paths never enumerates the
``2^(n-1)`` partitions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.core.configuration import IndexedSubpath
from repro.errors import OptimizerError

if TYPE_CHECKING:
    from repro.core.cost_matrix import CostMatrix

Blocks = tuple[tuple[int, int], ...]


def partition_count(length: int) -> int:
    """``2^(length-1)``: the number of contiguous partitions."""
    if length < 1:
        raise OptimizerError("path length must be at least 1")
    return 2 ** (length - 1)


def configuration_count(length: int, organizations_per_block: int) -> int:
    """``r·(1+r)^(length-1)``: configurations with ``r`` choices per block.

    Summing ``r^m`` over the ``C(length-1, m-1)`` partitions with ``m``
    blocks gives the size of the candidate space the multi-path selector
    draws from when every block may take any of its ``r`` best
    organizations. With ``r = 1`` this is :func:`partition_count`; the
    multi-path parity property uses it as the ``count`` beyond which
    :func:`top_configurations` provably covers the whole space.
    """
    if length < 1:
        raise OptimizerError("path length must be at least 1")
    if organizations_per_block < 1:
        raise OptimizerError(
            f"organizations per block must be positive, got "
            f"{organizations_per_block}"
        )
    r = organizations_per_block
    return r * (1 + r) ** (length - 1)


def top_configurations(
    matrix: CostMatrix,
    count: int,
    per_row_organizations: int = 1,
) -> list[tuple[float, tuple[IndexedSubpath, ...]]]:
    """The ``count`` cheapest configurations of one path, by local cost.

    A width-``count`` k-best sweep over the partition DAG (nodes are the
    boundary positions ``0..length``, an edge ``p → e`` is the block
    ``p+1..e`` priced with one of its ``per_row_organizations`` best
    organizations from the tie-tolerant :meth:`CostMatrix.ranked_organizations`
    ranking). Because the objective is additive, the ``count`` cheapest
    completions through a boundary extend the ``count`` cheapest partials
    reaching it, so keeping ``count`` partials per boundary is *exact*:
    the result is the true top-``count`` of the ``r·(1+r)^(n-1)``-sized
    candidate space (:func:`configuration_count`), and with ``count`` at
    least that size it is the whole space — the guarantee behind the
    multi-path candidate/oracle parity property.

    Returns ``(cost, blocks)`` pairs in ascending cost order; ties keep
    generation order (shorter first blocks and earlier organization
    columns first), so the output is deterministic across platforms.
    O(n² · r · count · log) time, independent of ``2^(n-1)``.
    """
    if count < 1:
        raise OptimizerError(f"candidate count must be positive, got {count}")
    if per_row_organizations < 1:
        raise OptimizerError(
            f"organizations per block must be positive, got "
            f"{per_row_organizations}"
        )
    length = matrix.length
    # best[p]: up to `count` cheapest (cost, blocks) covering 1..p.
    best: list[list[tuple[float, tuple[IndexedSubpath, ...]]]] = [
        [] for _ in range(length + 1)
    ]
    best[0] = [(0.0, ())]
    for end in range(1, length + 1):
        pool: list[tuple[float, tuple[IndexedSubpath, ...]]] = []
        for start in range(1, end + 1):
            ranked = matrix.ranked_organizations(
                start, end, limit=per_row_organizations
            )
            for organization in ranked:
                block_cost = matrix.cost(start, end, organization)
                block = IndexedSubpath(start, end, organization)
                for prefix_cost, prefix in best[start - 1]:
                    pool.append((prefix_cost + block_cost, prefix + (block,)))
        # Stable sort on cost only: IndexOrganization members are not
        # orderable, and generation order is already deterministic.
        pool.sort(key=lambda entry: entry[0])
        best[end] = pool[:count]
    return best[length]


def blocks_from_mask(length: int, mask: int) -> Blocks:
    """The partition selected by one boundary bitmask.

    Bit ``gap - 1`` of ``mask`` set means there is a boundary after
    position ``gap`` (for ``gap`` in ``1..length-1``).
    """
    blocks: list[tuple[int, int]] = []
    start = 1
    for gap in range(1, length):
        if mask & (1 << (gap - 1)):
            blocks.append((start, gap))
            start = gap + 1
    blocks.append((start, length))
    return tuple(blocks)


def enumerate_partitions(length: int) -> Iterator[Blocks]:
    """All contiguous partitions of positions ``1..length``.

    Yields ``2^(length-1)`` tuples of ``(start, end)`` blocks, in the
    order induced by the binary boundary masks (mask ``0`` — the whole
    path — first).
    """
    for mask in range(partition_count(length)):
        yield blocks_from_mask(length, mask)


def enumerate_first_pieces(start: int, length: int) -> Iterator[tuple[int, int]]:
    """The possible first blocks ``(start, k)`` of a partition of
    ``start..length``, longest first.

    The order matches the paper's ``Opt_Ind_Con`` recursion (split off
    ``S_{1,n-1}`` before ``S_{1,n-2}`` and so on); the complete remainder
    ``(start, length)`` is *not* included — strategies treat the unsplit
    remainder as the base case.
    """
    for k in range(length - 1, start - 1, -1):
        yield (start, k)


def validate_partition(length: int, blocks: Blocks) -> None:
    """Raise :class:`OptimizerError` unless ``blocks`` covers ``1..length``
    contiguously."""
    expected = 1
    for start, end in blocks:
        if start != expected or end < start:
            raise OptimizerError(
                f"blocks {blocks} do not form a contiguous partition of "
                f"1..{length}"
            )
        expected = end + 1
    if expected != length + 1:
        raise OptimizerError(
            f"blocks {blocks} do not cover positions 1..{length}"
        )
