"""An operational B+-tree with page-access accounting.

Matches the paper's physical assumptions (Section 3.1):

* non-leaf records are ``(attribute value, pointer)`` pairs;
* leaf nodes contain the index records and are chained;
* an index record longer than a page spills into an overflow chain of
  dedicated pages (the leaf keeps a short stub), so retrieving it costs
  the tree descent plus the record pages — the analytic ``h - 1 + pr``
  shape.

Every node occupies exactly one page of the :class:`~repro.storage.pager.Pager`,
which counts the reads and writes.

Deletion uses the *lazy* strategy: records are removed in place and empty
nodes are unlinked, but non-empty nodes are never rebalanced. Heights only
shrink when the root collapses. This keeps all structural invariants
(sorted keys, uniform leaf depth, correct chaining) while avoiding the
merge/borrow machinery that page-access counts do not need.
"""

from __future__ import annotations

import bisect
from typing import Callable, Iterator

from repro.errors import StorageError
from repro.storage.pager import Pager
from repro.storage.sizes import SizeModel


class _Record:
    """A stored index record: opaque value plus its byte size."""

    __slots__ = ("value", "size", "overflow_pages")

    def __init__(self, value: object, size: int, overflow_pages: list[int]):
        self.value = value
        self.size = size
        self.overflow_pages = overflow_pages


class _Leaf:
    __slots__ = ("page_id", "keys", "records", "next_leaf", "prev_leaf")

    def __init__(self, page_id: int):
        self.page_id = page_id
        self.keys: list[object] = []
        self.records: list[_Record] = []
        self.next_leaf: _Leaf | None = None
        self.prev_leaf: _Leaf | None = None


class _Internal:
    __slots__ = ("page_id", "keys", "children")

    def __init__(self, page_id: int):
        self.page_id = page_id
        # keys[i] is the smallest key reachable under children[i + 1].
        self.keys: list[object] = []
        self.children: list[object] = []


class BPlusTree:
    """A B+-tree keyed by comparable Python values.

    Parameters
    ----------
    pager:
        The accounting pager; one page per node, plus overflow pages.
    sizes:
        Physical constants; determines fanout and leaf byte budget.
    atomic_keys:
        Whether keys are atomic attribute values (longer) or oids.
    name:
        Cosmetic identifier used in error messages.
    """

    def __init__(
        self,
        pager: Pager,
        sizes: SizeModel,
        atomic_keys: bool = True,
        name: str = "index",
    ) -> None:
        self._pager = pager
        self._sizes = sizes
        self._name = name
        self._fanout = sizes.nonleaf_fanout(atomic_keys)
        self._leaf_budget = sizes.page_size - sizes.record_header_size
        self._stub_size = sizes.key_size(atomic_keys) + sizes.pointer_size
        self._root: _Leaf | _Internal = _Leaf(pager.allocate())
        self._record_count = 0

    # ------------------------------------------------------------------
    # public geometry
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Identifier given at construction."""
        return self._name

    @property
    def height(self) -> int:
        """Number of levels, leaf level included (``h_X`` in the paper)."""
        height = 1
        node = self._root
        while isinstance(node, _Internal):
            height += 1
            node = node.children[0]
        return height

    @property
    def record_count(self) -> int:
        """Number of stored index records (distinct keys)."""
        return self._record_count

    def leaf_page_count(self) -> int:
        """Number of leaf pages (``np`` in the paper), overflow excluded."""
        count = 0
        leaf = self._leftmost_leaf()
        while leaf is not None:
            count += 1
            leaf = leaf.next_leaf
        return count

    def node_count(self) -> int:
        """Total number of tree nodes (pages), overflow excluded."""
        total = 0
        stack: list[object] = [self._root]
        while stack:
            node = stack.pop()
            total += 1
            if isinstance(node, _Internal):
                stack.extend(node.children)
        return total

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def search(self, key: object, partial_pages: int | None = None) -> object | None:
        """Retrieve the record stored under ``key``, counting page reads.

        ``partial_pages`` limits how many overflow pages are fetched for an
        oversized record (the paper's ``pr`` < full size case: "some
        organizations retrieve only a fraction of the index record").
        Returns the record value, or ``None`` when the key is absent.
        """
        leaf, index = self._descend_counted(key)
        if index is None:
            return None
        record = leaf.records[index]
        for page_id in self._overflow_slice(record, partial_pages):
            self._pager.read(page_id)
        return record.value

    def search_direct(self, key: object, partial_pages: int | None = None) -> object | None:
        """Retrieve a record through a direct pointer (no tree descent).

        Models following a stored physical pointer (e.g. the pointer array
        of a NIX 3-tuple, Figure 4): only the leaf page holding the record
        and its overflow pages are charged, not the root-to-leaf path.
        """
        leaf, index = self._descend(key)
        if index is None:
            return None
        self._pager.read(leaf.page_id)
        record = leaf.records[index]
        for page_id in self._overflow_slice(record, partial_pages):
            self._pager.read(page_id)
        return record.value

    def update_direct(self, key: object, value: object, size: int) -> None:
        """Rewrite a record through a direct pointer (no tree descent).

        Charges the leaf page write and the new record image's overflow
        pages; the caller is assumed to have already read the record (via
        :meth:`search_direct`).
        """
        if size <= 0:
            raise StorageError(f"{self._name}: record size must be positive")
        path = self._descend_path(key)
        leaf = path[-1][0]
        assert isinstance(leaf, _Leaf)
        position = bisect.bisect_left(leaf.keys, key)  # type: ignore[type-var]
        if position >= len(leaf.keys) or leaf.keys[position] != key:
            raise StorageError(f"{self._name}: direct update of missing key {key!r}")
        old = leaf.records[position]
        self._free_overflow(old)
        record = self._make_record(value, size)
        leaf.records[position] = record
        for page_id in record.overflow_pages:
            self._pager.write(page_id)
        self._pager.write(leaf.page_id)
        # Structural splits (the record may have grown) charge their own
        # page writes; the descent itself was free (pointer access).
        self._split_upward(path)

    def contains(self, key: object) -> bool:
        """Uncounted membership test (for assertions and tests)."""
        leaf, index = self._descend(key)
        return index is not None

    def get(self, key: object) -> object | None:
        """Uncounted lookup (for assertions and tests)."""
        leaf, index = self._descend(key)
        return leaf.records[index].value if index is not None else None

    def range_scan(self, low: object, high: object) -> list[tuple[object, object]]:
        """All ``(key, value)`` with ``low <= key <= high``, counting reads.

        Uses the leaf chaining the paper prescribes for range predicates.
        """
        results: list[tuple[object, object]] = []
        leaf, _ = self._descend_counted(low)
        while leaf is not None:
            consumed = False
            for key, record in zip(leaf.keys, leaf.records):
                if key < low:  # type: ignore[operator]
                    continue
                if key > high:  # type: ignore[operator]
                    return results
                for page_id in record.overflow_pages:
                    self._pager.read(page_id)
                results.append((key, record.value))
                consumed = True
            next_leaf = leaf.next_leaf
            if next_leaf is not None and (consumed or not leaf.keys):
                self._pager.read(next_leaf.page_id)
            leaf = next_leaf
        return results

    # ------------------------------------------------------------------
    # modification
    # ------------------------------------------------------------------
    def insert(self, key: object, value: object, size: int) -> None:
        """Insert a new record; raises if the key already exists."""
        if size <= 0:
            raise StorageError(f"{self._name}: record size must be positive")
        path = self._descend_path_counted(key)
        leaf = path[-1][0]
        assert isinstance(leaf, _Leaf)
        position = bisect.bisect_left(leaf.keys, key)  # type: ignore[type-var]
        if position < len(leaf.keys) and leaf.keys[position] == key:
            raise StorageError(f"{self._name}: duplicate key {key!r}")
        record = self._make_record(value, size)
        leaf.keys.insert(position, key)
        leaf.records.insert(position, record)
        self._record_count += 1
        self._pager.write(leaf.page_id)
        self._split_upward(path)

    def update(self, key: object, value: object, size: int) -> None:
        """Replace the record stored under an existing key.

        Counts the descent, the overflow rewrite (only the pages of the new
        record image: "only the pages which should be modified are
        retrieved and updated"), and the leaf write.
        """
        if size <= 0:
            raise StorageError(f"{self._name}: record size must be positive")
        path = self._descend_path_counted(key)
        leaf = path[-1][0]
        assert isinstance(leaf, _Leaf)
        position = bisect.bisect_left(leaf.keys, key)  # type: ignore[type-var]
        if position >= len(leaf.keys) or leaf.keys[position] != key:
            raise StorageError(f"{self._name}: update of missing key {key!r}")
        old = leaf.records[position]
        self._free_overflow(old)
        record = self._make_record(value, size)
        leaf.records[position] = record
        for page_id in record.overflow_pages:
            self._pager.write(page_id)
        self._pager.write(leaf.page_id)
        self._split_upward(path)

    def upsert(self, key: object, value: object, size: int) -> None:
        """Insert or update, whichever applies."""
        if self.contains(key):
            self.update(key, value, size)
        else:
            self.insert(key, value, size)

    def delete(self, key: object) -> object:
        """Remove a record, returning its value; raises if absent."""
        path = self._descend_path_counted(key)
        leaf = path[-1][0]
        assert isinstance(leaf, _Leaf)
        position = bisect.bisect_left(leaf.keys, key)  # type: ignore[type-var]
        if position >= len(leaf.keys) or leaf.keys[position] != key:
            raise StorageError(f"{self._name}: delete of missing key {key!r}")
        record = leaf.records.pop(position)
        leaf.keys.pop(position)
        self._record_count -= 1
        self._free_overflow(record)
        self._pager.write(leaf.page_id)
        if not leaf.keys:
            self._unlink_empty(path)
        return record.value

    # ------------------------------------------------------------------
    # uncounted iteration / verification (test support)
    # ------------------------------------------------------------------
    def items(self) -> Iterator[tuple[object, object]]:
        """All records in key order, without touching the counters."""
        leaf = self._leftmost_leaf()
        while leaf is not None:
            yield from zip(leaf.keys, (record.value for record in leaf.records))
            leaf = leaf.next_leaf

    def check_invariants(self) -> None:
        """Assert structural invariants; raises :class:`StorageError`.

        * keys strictly increasing across the whole leaf chain;
        * every leaf reachable from the root is on the chain and vice versa;
        * all leaves at the same depth;
        * internal separator keys bound their subtrees;
        * fanout within limits (except lazily-deleted underflow).
        """
        depths: set[int] = set()
        chain = []
        leaf = self._leftmost_leaf()
        while leaf is not None:
            chain.append(leaf.page_id)
            leaf = leaf.next_leaf
        reachable: list[int] = []

        def visit(node: object, depth: int, low: object, high: object) -> None:
            if isinstance(node, _Leaf):
                depths.add(depth)
                reachable.append(node.page_id)
                for key in node.keys:
                    self._check_bound(key, low, high)
                sorted_keys = sorted(node.keys)  # type: ignore[type-var]
                if sorted_keys != node.keys:
                    raise StorageError(f"{self._name}: unsorted leaf keys")
                return
            assert isinstance(node, _Internal)
            if len(node.children) != len(node.keys) + 1:
                raise StorageError(f"{self._name}: malformed internal node")
            if len(node.children) > self._fanout + 1:
                raise StorageError(f"{self._name}: fanout overflow")
            bounds = [low, *node.keys, high]
            for index, child in enumerate(node.children):
                visit(child, depth + 1, bounds[index], bounds[index + 1])

        visit(self._root, 0, None, None)
        if len(depths) > 1:
            raise StorageError(f"{self._name}: leaves at different depths")
        if sorted(chain) != sorted(reachable):
            raise StorageError(f"{self._name}: leaf chain does not match tree")
        keys = [key for key, _ in self.items()]
        if any(a >= b for a, b in zip(keys, keys[1:])):  # type: ignore[operator]
            raise StorageError(f"{self._name}: keys not strictly increasing")

    def _check_bound(self, key: object, low: object, high: object) -> None:
        if low is not None and key < low:  # type: ignore[operator]
            raise StorageError(f"{self._name}: key below subtree bound")
        if high is not None and key >= high:  # type: ignore[operator]
            raise StorageError(f"{self._name}: key above subtree bound")

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _leftmost_leaf(self) -> _Leaf | None:
        node = self._root
        while isinstance(node, _Internal):
            node = node.children[0]
        assert isinstance(node, _Leaf)
        return node

    def _make_record(self, value: object, size: int) -> _Record:
        overflow: list[int] = []
        if size > self._leaf_budget:
            overflow = self._pager.allocate_many(self._sizes.pages_for(size))
            for page_id in overflow:
                self._pager.write(page_id)
        return _Record(value=value, size=size, overflow_pages=overflow)

    def _free_overflow(self, record: _Record) -> None:
        for page_id in record.overflow_pages:
            self._pager.free(page_id)
        record.overflow_pages = []

    def _overflow_slice(self, record: _Record, partial_pages: int | None) -> list[int]:
        if partial_pages is None:
            return record.overflow_pages
        if partial_pages < 0:
            raise StorageError("partial_pages must be non-negative")
        return record.overflow_pages[:partial_pages]

    def _leaf_weight(self, record: _Record) -> int:
        return self._stub_size if record.overflow_pages else record.size

    def _leaf_overfull(self, leaf: _Leaf) -> bool:
        if len(leaf.keys) <= 1:
            return False
        return sum(self._leaf_weight(r) for r in leaf.records) > self._leaf_budget

    def _descend(self, key: object) -> tuple[_Leaf, int | None]:
        node = self._root
        while isinstance(node, _Internal):
            node = node.children[bisect.bisect_right(node.keys, key)]  # type: ignore[type-var]
        assert isinstance(node, _Leaf)
        position = bisect.bisect_left(node.keys, key)  # type: ignore[type-var]
        if position < len(node.keys) and node.keys[position] == key:
            return node, position
        return node, None

    def _descend_counted(self, key: object) -> tuple[_Leaf, int | None]:
        node = self._root
        self._pager.read(node.page_id)
        while isinstance(node, _Internal):
            node = node.children[bisect.bisect_right(node.keys, key)]  # type: ignore[type-var]
            self._pager.read(node.page_id)
        assert isinstance(node, _Leaf)
        position = bisect.bisect_left(node.keys, key)  # type: ignore[type-var]
        if position < len(node.keys) and node.keys[position] == key:
            return node, position
        return node, None

    def _descend_path_counted(
        self, key: object
    ) -> list[tuple[object, int | None]]:
        """Root-to-leaf path as ``(node, child index taken)`` pairs."""
        path: list[tuple[object, int | None]] = []
        node = self._root
        self._pager.read(node.page_id)
        while isinstance(node, _Internal):
            index = bisect.bisect_right(node.keys, key)  # type: ignore[type-var]
            path.append((node, index))
            node = node.children[index]
            self._pager.read(node.page_id)
        path.append((node, None))
        return path

    def _descend_path(self, key: object) -> list[tuple[object, int | None]]:
        """Uncounted root-to-leaf path (for direct-pointer operations)."""
        path: list[tuple[object, int | None]] = []
        node = self._root
        while isinstance(node, _Internal):
            index = bisect.bisect_right(node.keys, key)  # type: ignore[type-var]
            path.append((node, index))
            node = node.children[index]
        path.append((node, None))
        return path

    def _split_upward(self, path: list[tuple[object, int | None]]) -> None:
        """Split overfull nodes from the leaf upward."""
        leaf = path[-1][0]
        assert isinstance(leaf, _Leaf)
        carry: tuple[object, object] | None = None  # (separator key, new node)
        if self._leaf_overfull(leaf):
            carry = self._split_leaf(leaf)
        for node, child_index in reversed(path[:-1]):
            if carry is None:
                return
            assert isinstance(node, _Internal) and child_index is not None
            separator, new_child = carry
            node.keys.insert(child_index, separator)
            node.children.insert(child_index + 1, new_child)
            self._pager.write(node.page_id)
            carry = None
            if len(node.children) > self._fanout:
                carry = self._split_internal(node)
        if carry is not None:
            separator, new_child = carry
            new_root = _Internal(self._pager.allocate())
            new_root.keys = [separator]
            new_root.children = [self._root, new_child]
            self._root = new_root
            self._pager.write(new_root.page_id)

    def _split_leaf(self, leaf: _Leaf) -> tuple[object, _Leaf]:
        middle = len(leaf.keys) // 2
        sibling = _Leaf(self._pager.allocate())
        sibling.keys = leaf.keys[middle:]
        sibling.records = leaf.records[middle:]
        leaf.keys = leaf.keys[:middle]
        leaf.records = leaf.records[:middle]
        sibling.next_leaf = leaf.next_leaf
        if sibling.next_leaf is not None:
            sibling.next_leaf.prev_leaf = sibling
        sibling.prev_leaf = leaf
        leaf.next_leaf = sibling
        self._pager.write(leaf.page_id)
        self._pager.write(sibling.page_id)
        return sibling.keys[0], sibling

    def _split_internal(self, node: _Internal) -> tuple[object, _Internal]:
        middle = len(node.keys) // 2
        separator = node.keys[middle]
        sibling = _Internal(self._pager.allocate())
        sibling.keys = node.keys[middle + 1 :]
        sibling.children = node.children[middle + 1 :]
        node.keys = node.keys[:middle]
        node.children = node.children[: middle + 1]
        self._pager.write(node.page_id)
        self._pager.write(sibling.page_id)
        return separator, sibling

    def _unlink_empty(self, path: list[tuple[object, int | None]]) -> None:
        """Remove an emptied leaf and cascade through emptied ancestors."""
        leaf = path[-1][0]
        assert isinstance(leaf, _Leaf)
        if len(path) == 1:
            return  # The root leaf may stay empty.
        if leaf.prev_leaf is not None:
            leaf.prev_leaf.next_leaf = leaf.next_leaf
        if leaf.next_leaf is not None:
            leaf.next_leaf.prev_leaf = leaf.prev_leaf
        self._pager.free(leaf.page_id)
        child: object = leaf
        for node, child_index in reversed(path[:-1]):
            assert isinstance(node, _Internal) and child_index is not None
            position = node.children.index(child)
            node.children.pop(position)
            if node.keys:
                node.keys.pop(max(position - 1, 0))
            self._pager.write(node.page_id)
            if node.children:
                break
            self._pager.free(node.page_id)
            child = node
        self._collapse_root()

    def _collapse_root(self) -> None:
        while isinstance(self._root, _Internal) and len(self._root.children) == 1:
            old = self._root
            self._root = old.children[0]  # type: ignore[assignment]
            self._pager.free(old.page_id)


SizeFunction = Callable[[object], int]
