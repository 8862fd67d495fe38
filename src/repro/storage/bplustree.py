"""A page-based B+-tree on the simulated disk.

The inverted file of paper §3.1 keys the edges of each keyword's
posting list by the Z-order code of the edge centre and maintains them
"by a B+ tree".  This module provides that structure: a disk-resident
B+-tree whose nodes are pages of a :class:`~repro.storage.pagefile.PageFile`,
supporting bulk loading (index construction), point search, range scans,
single-key insertion and in-place value replacement.

Keys are integers (Z-order codes, object ids, ...).  Values are opaque;
callers provide a byte-size estimate per entry so fan-out honours the
4096-byte page size.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator, List, Optional, Tuple

from ..errors import StorageError
from .pagefile import PAGE_SIZE, PageFile

__all__ = ["BPlusTree"]

_NODE_HEADER_BYTES = 24
_CHILD_POINTER_BYTES = 8


class _Node:
    """In-page representation of a B+-tree node."""

    __slots__ = ("leaf", "keys", "values", "children", "next_leaf")

    def __init__(self, leaf: bool) -> None:
        self.leaf = leaf
        self.keys: List[int] = []
        self.values: List[Any] = []        # leaf only
        self.children: List[int] = []      # internal only (page numbers)
        self.next_leaf: Optional[int] = None


class BPlusTree:
    """Disk-resident B+-tree over integer keys.

    Parameters
    ----------
    file:
        Page file that stores the nodes (one node per page).
    key_bytes:
        Estimated bytes per key on disk.
    value_bytes:
        Estimated bytes per leaf value on disk.
    """

    def __init__(
        self,
        file: PageFile,
        key_bytes: int = 8,
        value_bytes: int = 8,
        pin_root: bool = True,
    ) -> None:
        """``pin_root=True`` keeps the root page memory-resident (the
        standard practice for index roots): root accesses are free, all
        other node reads are charged through the buffer pool."""
        if key_bytes <= 0 or value_bytes <= 0:
            raise ValueError("entry byte sizes must be positive")
        self._file = file
        self._key_bytes = key_bytes
        self._value_bytes = value_bytes
        self._pin_root = pin_root
        self._leaf_capacity = max(
            2, (PAGE_SIZE - _NODE_HEADER_BYTES) // (key_bytes + value_bytes)
        )
        self._internal_capacity = max(
            2, (PAGE_SIZE - _NODE_HEADER_BYTES) // (key_bytes + _CHILD_POINTER_BYTES)
        )
        self._root_page: Optional[int] = None
        self._height = 0
        self._num_entries = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._num_entries

    @property
    def num_pages(self) -> int:
        return self._file.num_pages

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def bulk_load(self, entries: List[Tuple[int, Any]]) -> None:
        """Build the tree from ``entries`` sorted by key (strictly unique).

        Bulk loading packs leaves to ~100 % occupancy, the standard
        approach for read-mostly index construction.
        """
        if self._root_page is not None:
            raise StorageError("B+-tree already built")
        if not entries:
            root = _Node(leaf=True)
            self._root_page = self._write_node(root)
            self._height = 1
            return
        for (k1, _), (k2, _) in zip(entries, entries[1:]):
            if k1 >= k2:
                raise StorageError("bulk_load requires strictly increasing keys")

        # Level 0: leaves.
        leaf_pages: List[int] = []
        level_keys: List[int] = []  # smallest key of each node on this level
        for start in range(0, len(entries), self._leaf_capacity):
            chunk = entries[start : start + self._leaf_capacity]
            node = _Node(leaf=True)
            node.keys = [k for k, _ in chunk]
            node.values = [v for _, v in chunk]
            page_no = self._write_node(node)
            if leaf_pages:
                self._patch_next_leaf(leaf_pages[-1], page_no)
            leaf_pages.append(page_no)
            level_keys.append(node.keys[0])
        self._num_entries = len(entries)
        self._height = 1

        # Upper levels.
        pages, keys = leaf_pages, level_keys
        while len(pages) > 1:
            next_pages: List[int] = []
            next_keys: List[int] = []
            for start in range(0, len(pages), self._internal_capacity):
                child_pages = pages[start : start + self._internal_capacity]
                child_keys = keys[start : start + self._internal_capacity]
                node = _Node(leaf=False)
                node.children = list(child_pages)
                node.keys = list(child_keys[1:])  # separators
                page_no = self._write_node(node)
                next_pages.append(page_no)
                next_keys.append(child_keys[0])
            pages, keys = next_pages, next_keys
            self._height += 1
        self._root_page = pages[0]

    def insert(self, key: int, value: Any) -> None:
        """Insert one entry; raises on duplicate key."""
        if self._root_page is None:
            self.bulk_load([(key, value)])
            return
        split = self._insert_into(self._root_page, key, value)
        if split is not None:
            sep_key, right_page = split
            root = _Node(leaf=False)
            root.children = [self._root_page, right_page]
            root.keys = [sep_key]
            self._root_page = self._write_node(root)
            self._height += 1
        self._num_entries += 1

    def replace(self, key: int, value: Any) -> None:
        """Overwrite the value of an existing ``key`` in place.

        Charges nothing, like an in-place edit of a mutable value that
        :meth:`search` returned: the descent reads nodes unbuffered and
        no page is written or resized.  Raises :class:`StorageError` if
        ``key`` is absent.
        """
        if self._root_page is not None:
            node = self._read_node_unbuffered(self._root_page)
            while not node.leaf:
                idx = bisect.bisect_right(node.keys, key)
                node = self._read_node_unbuffered(node.children[idx])
            idx = bisect.bisect_left(node.keys, key)
            if idx < len(node.keys) and node.keys[idx] == key:
                node.values[idx] = value
                return
        raise StorageError(f"no key {key} to replace")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def search(self, key: int) -> Optional[Any]:
        """Point lookup; returns the value or ``None``.

        Each node visited charges one buffered page read.
        """
        if self._root_page is None:
            return None
        node = self._read_root()
        while not node.leaf:
            idx = bisect.bisect_right(node.keys, key)
            node = self._read_node(node.children[idx])
        idx = bisect.bisect_left(node.keys, key)
        if idx < len(node.keys) and node.keys[idx] == key:
            return node.values[idx]
        return None

    def range(self, lo: int, hi: int) -> Iterator[Tuple[int, Any]]:
        """Yield every ``(key, value)`` with ``lo <= key <= hi`` in order."""
        if self._root_page is None or lo > hi:
            return
        node = self._read_root()
        while not node.leaf:
            idx = bisect.bisect_right(node.keys, lo)
            node = self._read_node(node.children[idx])
        while True:
            start = bisect.bisect_left(node.keys, lo)
            for i in range(start, len(node.keys)):
                if node.keys[i] > hi:
                    return
                yield node.keys[i], node.values[i]
            if node.next_leaf is None:
                return
            node = self._read_node(node.next_leaf)

    def items(self) -> Iterator[Tuple[int, Any]]:
        """Full ordered scan."""
        yield from self.range(-(1 << 62), 1 << 62)

    # ------------------------------------------------------------------
    # Node storage helpers
    # ------------------------------------------------------------------
    def _write_node(self, node: _Node) -> int:
        size = _NODE_HEADER_BYTES + len(node.keys) * self._key_bytes
        if node.leaf:
            size += len(node.values) * self._value_bytes
        else:
            size += len(node.children) * _CHILD_POINTER_BYTES
        return self._file.allocate(node, size_bytes=min(size, PAGE_SIZE))

    def _read_node(self, page_no: int) -> _Node:
        return self._file.read(page_no)

    def _read_root(self) -> _Node:
        """Root access; uncharged when the root is pinned."""
        if self._pin_root:
            return self._file.read_unbuffered(self._root_page)
        return self._file.read(self._root_page)

    def _read_node_unbuffered(self, page_no: int) -> _Node:
        return self._file.read_unbuffered(page_no)

    def _patch_next_leaf(self, page_no: int, next_page: int) -> None:
        node = self._file.read_unbuffered(page_no)
        node.next_leaf = next_page

    def _insert_into(
        self, page_no: int, key: int, value: Any
    ) -> Optional[Tuple[int, int]]:
        """Recursive insert; returns ``(separator, new_page)`` on split."""
        node = self._read_node_unbuffered(page_no)
        if node.leaf:
            idx = bisect.bisect_left(node.keys, key)
            if idx < len(node.keys) and node.keys[idx] == key:
                raise StorageError(f"duplicate key {key}")
            node.keys.insert(idx, key)
            node.values.insert(idx, value)
            if len(node.keys) <= self._leaf_capacity:
                return None
            mid = len(node.keys) // 2
            right = _Node(leaf=True)
            right.keys = node.keys[mid:]
            right.values = node.values[mid:]
            right.next_leaf = node.next_leaf
            node.keys = node.keys[:mid]
            node.values = node.values[:mid]
            right_page = self._write_node(right)
            node.next_leaf = right_page
            return right.keys[0], right_page

        idx = bisect.bisect_right(node.keys, key)
        split = self._insert_into(node.children[idx], key, value)
        if split is None:
            return None
        sep_key, right_page = split
        node.keys.insert(idx, sep_key)
        node.children.insert(idx + 1, right_page)
        if len(node.children) <= self._internal_capacity:
            return None
        mid = len(node.children) // 2
        right = _Node(leaf=False)
        right.children = node.children[mid:]
        right.keys = node.keys[mid:]
        promoted = node.keys[mid - 1]
        node.children = node.children[:mid]
        node.keys = node.keys[: mid - 1]
        new_page = self._write_node(right)
        return promoted, new_page
