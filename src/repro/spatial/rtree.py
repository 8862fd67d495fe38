"""A page-based R-tree over the simulated disk.

Two roles in the reproduction (paper §2.2 and §5):

* the *network R-tree* organising the MBRs of road edges, used to snap
  spatio-textual objects onto their edges in a branch-and-bound fashion;
* the *inverted R-tree* (IR) baseline, which keeps one R-tree of objects
  per keyword.

The tree is bulk loaded with Sort-Tile-Recursive (STR) packing, the
standard technique for static datasets; nodes live on pages of a
:class:`~repro.storage.pagefile.PageFile` so every traversal is charged
to the I/O model.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from ..errors import StorageError
from ..storage.pagefile import PAGE_SIZE, PageFile
from .geometry import MBR, Point

__all__ = ["RTree", "RTreeEntry"]

_ENTRY_BYTES = 40  # 4 doubles for the MBR + an 8-byte pointer/payload
_NODE_HEADER_BYTES = 16


class RTreeEntry:
    """A leaf entry: an MBR plus an opaque payload (edge id, object id...)."""

    __slots__ = ("mbr", "payload")

    def __init__(self, mbr: MBR, payload: Any) -> None:
        self.mbr = mbr
        self.payload = payload


class _RNode:
    __slots__ = ("leaf", "mbr", "entries", "children")

    def __init__(self, leaf: bool) -> None:
        self.leaf = leaf
        self.mbr: Optional[MBR] = None
        self.entries: List[RTreeEntry] = []          # leaf only
        self.children: List[Tuple[MBR, int]] = []    # internal: (mbr, page_no)


class RTree:
    """Disk-resident R-tree with STR bulk loading.

    Parameters
    ----------
    file:
        Page file storing the nodes.
    fanout:
        Maximum entries per node; defaults to what fits in a 4 KiB page.
    """

    def __init__(
        self,
        file: PageFile,
        fanout: Optional[int] = None,
        pin_root: bool = True,
    ) -> None:
        """``pin_root=True`` keeps the root page memory-resident, as
        index roots are in practice; other node reads are charged."""
        if fanout is None:
            fanout = max(4, (PAGE_SIZE - _NODE_HEADER_BYTES) // _ENTRY_BYTES)
        if fanout < 2:
            raise ValueError("R-tree fanout must be at least 2")
        self._file = file
        self._fanout = fanout
        self._pin_root = pin_root
        self._root_page: Optional[int] = None
        self._num_entries = 0

    def __len__(self) -> int:
        return self._num_entries

    # ------------------------------------------------------------------
    # Construction (STR bulk load)
    # ------------------------------------------------------------------
    def bulk_load(self, entries: Sequence[RTreeEntry]) -> None:
        """Build the tree bottom-up with Sort-Tile-Recursive packing."""
        if self._root_page is not None:
            raise StorageError("R-tree already built")
        self._num_entries = len(entries)
        if not entries:
            root = _RNode(leaf=True)
            self._root_page = self._write_node(root)
            return

        groups = self._str_pack(list(entries))
        pages: List[Tuple[MBR, int]] = []
        for group in groups:
            node = _RNode(leaf=True)
            node.entries = group
            node.mbr = MBR.union_all([e.mbr for e in group])
            pages.append((node.mbr, self._write_node(node)))

        while len(pages) > 1:
            next_pages: List[Tuple[MBR, int]] = []
            child_groups = self._str_pack_boxes(pages)
            for group in child_groups:
                node = _RNode(leaf=False)
                node.children = group
                node.mbr = MBR.union_all([m for m, _ in group])
                next_pages.append((node.mbr, self._write_node(node)))
            pages = next_pages
        self._root_page = pages[0][1]

    def _str_pack(self, entries: List[RTreeEntry]) -> List[List[RTreeEntry]]:
        """Sort-Tile-Recursive packing of leaf entries into node groups."""
        n = len(entries)
        per_node = self._fanout
        num_nodes = math.ceil(n / per_node)
        num_slices = max(1, math.ceil(math.sqrt(num_nodes)))
        slice_size = num_slices * per_node
        entries.sort(key=lambda e: e.mbr.center.x)
        groups: List[List[RTreeEntry]] = []
        for s in range(0, n, slice_size):
            chunk = sorted(
                entries[s : s + slice_size], key=lambda e: e.mbr.center.y
            )
            for g in range(0, len(chunk), per_node):
                groups.append(chunk[g : g + per_node])
        return groups

    def _str_pack_boxes(
        self, boxes: List[Tuple[MBR, int]]
    ) -> List[List[Tuple[MBR, int]]]:
        n = len(boxes)
        per_node = self._fanout
        num_nodes = math.ceil(n / per_node)
        num_slices = max(1, math.ceil(math.sqrt(num_nodes)))
        slice_size = num_slices * per_node
        boxes.sort(key=lambda b: b[0].center.x)
        groups: List[List[Tuple[MBR, int]]] = []
        for s in range(0, n, slice_size):
            chunk = sorted(boxes[s : s + slice_size], key=lambda b: b[0].center.y)
            for g in range(0, len(chunk), per_node):
                groups.append(chunk[g : g + per_node])
        return groups

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def window(self, region: MBR) -> Iterator[RTreeEntry]:
        """Yield every leaf entry whose MBR intersects ``region``."""
        if self._root_page is None:
            return
        stack = [self._root_page]
        while stack:
            node: _RNode = self._read(stack.pop())
            if node.leaf:
                for entry in node.entries:
                    if entry.mbr.intersects(region):
                        yield entry
            else:
                for mbr, page in node.children:
                    if mbr.intersects(region):
                        stack.append(page)

    def nearest(self, p: Point, k: int = 1) -> List[RTreeEntry]:
        """Best-first k-nearest-neighbour search by MBR distance.

        Distance to a leaf entry is the min distance from ``p`` to its
        MBR, which for degenerate (point or segment-box) entries matches
        the true geometric distance closely enough for snapping; exact
        refinement is the caller's job.
        """
        if self._root_page is None or k <= 0:
            return []
        counter = 0
        heap: List[Tuple[float, int, bool, Any]] = []
        heapq.heappush(heap, (0.0, counter, False, self._root_page))
        results: List[RTreeEntry] = []
        while heap and len(results) < k:
            dist, _, is_entry, item = heapq.heappop(heap)
            if is_entry:
                results.append(item)
                continue
            node: _RNode = self._read(item)
            if node.leaf:
                for entry in node.entries:
                    counter += 1
                    heapq.heappush(
                        heap,
                        (entry.mbr.min_distance_to_point(p), counter, True, entry),
                    )
            else:
                for mbr, page in node.children:
                    counter += 1
                    heapq.heappush(
                        heap, (mbr.min_distance_to_point(p), counter, False, page)
                    )
        return results

    # ------------------------------------------------------------------
    def _read(self, page_no: int) -> _RNode:
        if self._pin_root and page_no == self._root_page:
            return self._file.read_unbuffered(page_no)
        return self._file.read(page_no)

    def _write_node(self, node: _RNode) -> int:
        count = len(node.entries) if node.leaf else len(node.children)
        size = _NODE_HEADER_BYTES + count * _ENTRY_BYTES
        return self._file.allocate(node, size_bytes=min(size, PAGE_SIZE))
