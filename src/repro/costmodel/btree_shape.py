"""B+-tree shape estimation: heights, leaf pages, level profiles.

The paper defers index-height computation to its companion report [7];
this module supplies the standard construction it alludes to. A shape is
computed from the number of index records, the average record length and
the key length:

* records no longer than a page are packed ``⌊p/ln⌋`` per leaf page;
* records longer than a page live in dedicated overflow chains of
  ``⌈ln/p⌉`` pages; the structural leaf level then holds short
  ``(key, pointer)`` stubs, and the record pages count as one extra level
  so that ``CRL = h - 1 + pr`` comes out exactly as in Section 3.1;
* each non-leaf level holds one ``(attribute value, pointer)`` router per
  page of the level below.

The :class:`IndexShape` captures, for every structural level, the record
and page counts needed by the level-by-level Yao sums of ``CRT``/``CMT``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import CostModelError
from repro.storage.sizes import SizeModel


@dataclass(frozen=True)
class Level:
    """One level of the tree: record and page counts (leaf is first)."""

    records: float
    pages: float


@dataclass(frozen=True)
class IndexShape:
    """The physical profile of one index.

    Attributes
    ----------
    record_count:
        Number of index records (distinct key values), possibly fractional
        because it is an estimate.
    record_length:
        ``ln_X``: average record length in bytes.
    height:
        ``h_X``: number of levels, counting the record-pages level for
        oversized records (so ``CRL = height`` or ``height - 1 + pr``).
    levels:
        Structural levels from leaf to root (stub tree for oversized
        records). Empty for an empty index.
    record_pages:
        ``⌈ln/p⌉`` — pages per record (1 when the record fits).
    oversized:
        Whether ``ln > p``.
    leaf_pages:
        ``np_X``: pages of the (structural) leaf level.
    """

    record_count: float
    record_length: float
    height: int
    levels: tuple[Level, ...]
    record_pages: int
    oversized: bool
    leaf_pages: float

    @property
    def empty(self) -> bool:
        """Whether the index holds no records."""
        return self.record_count <= 0


def build_shape(
    record_count: float,
    record_length: float,
    key_size: int,
    sizes: SizeModel,
) -> IndexShape:
    """Estimate the shape of a B+-tree index.

    Parameters
    ----------
    record_count:
        Expected number of index records (``d`` distinct values).
    record_length:
        Expected record length ``ln`` in bytes.
    key_size:
        Length of the key inside non-leaf routers and leaf stubs.
    sizes:
        Physical constants (page size, pointer size).
    """
    if record_count < 0:
        raise CostModelError(f"negative record count: {record_count}")
    if record_count > 0 and record_length <= 0:
        raise CostModelError(f"non-positive record length: {record_length}")
    if key_size <= 0:
        raise CostModelError(f"non-positive key size: {key_size}")

    if record_count == 0:
        return IndexShape(
            record_count=0.0,
            record_length=max(record_length, 0.0),
            height=1,
            levels=(),
            record_pages=0,
            oversized=False,
            leaf_pages=0.0,
        )

    page = sizes.page_size
    oversized = record_length > page
    record_pages = max(1, math.ceil(record_length / page))

    if oversized:
        stub_size = key_size + sizes.pointer_size
        stub_levels = _structural_levels(record_count, stub_size, key_size, sizes)
        height = len(stub_levels) + 1  # +1 for the record-pages level
        return IndexShape(
            record_count=record_count,
            record_length=record_length,
            height=height,
            levels=stub_levels,
            record_pages=record_pages,
            oversized=True,
            leaf_pages=stub_levels[0].pages,
        )

    levels = _structural_levels(record_count, record_length, key_size, sizes)
    return IndexShape(
        record_count=record_count,
        record_length=record_length,
        height=len(levels),
        levels=levels,
        record_pages=1,
        oversized=False,
        leaf_pages=levels[0].pages,
    )


def _structural_levels(
    record_count: float,
    record_length: float,
    key_size: int,
    sizes: SizeModel,
) -> tuple[Level, ...]:
    """Leaf-to-root level profile for records that fit in a page."""
    per_page = max(1, int(sizes.page_size // max(record_length, 1.0)))
    leaf_pages = max(1.0, record_count / per_page)
    levels = [Level(records=record_count, pages=leaf_pages)]
    fanout = max(2, sizes.page_size // (key_size + sizes.pointer_size))
    pages = leaf_pages
    while pages > 1.0:
        records = pages  # one router per child page
        pages = max(1.0, math.ceil(records / fanout) if records > fanout else 1.0)
        # Keep fractional page counts above one level honest:
        if records > fanout:
            pages = records / fanout
        levels.append(Level(records=records, pages=max(pages, 1.0)))
        if pages <= 1.0:
            break
    # Ensure the top level is a single root page.
    top = levels[-1]
    if top.pages > 1.0:
        levels.append(Level(records=top.pages, pages=1.0))
    return tuple(levels)
