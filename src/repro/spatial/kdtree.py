"""KD-tree partitioning used to compact per-keyword edge signatures.

Paper §3.1: "we recursively divide the edges by KD-tree partition
method based on the center points of the edges, and each leaf node
corresponds to the signature of an edge.  Then the signature size of a
keyword can be significantly reduced by compacting the tree node if all
of its descendant nodes share the same signature value."

The tree is built once per road network over the edge centres; every
keyword's bitmap is then measured against it: the *compact size* of a
signature is the number of maximal subtrees whose leaves all share the
same bit, which is exactly the number of nodes a compacted tree would
retain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from .geometry import Point

__all__ = ["KDTreePartition", "KDNode"]


@dataclass
class KDNode:
    """One node of the KD partition tree.

    Leaves hold exactly one item id (an edge); internal nodes split the
    remaining items at the median of the alternating axis.
    """

    item_ids: Tuple[int, ...]
    axis: int
    left: Optional["KDNode"] = None
    right: Optional["KDNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None


class KDTreePartition:
    """A static KD-tree over item centre points.

    Parameters
    ----------
    centers:
        ``centers[i]`` is the centre point of item ``i`` (edge ``i``).
    leaf_size:
        Maximum number of items per leaf (1 reproduces the paper's
        "each leaf node corresponds to the signature of an edge").
    """

    def __init__(self, centers: Sequence[Point], leaf_size: int = 1) -> None:
        if leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        self._centers = list(centers)
        self._leaf_size = leaf_size
        if self._centers:
            ids = list(range(len(self._centers)))
            self.root: Optional[KDNode] = self._build(ids, axis=0)
        else:
            self.root = None

    def __len__(self) -> int:
        return len(self._centers)

    def _build(self, ids: List[int], axis: int) -> KDNode:
        if len(ids) <= self._leaf_size:
            return KDNode(item_ids=tuple(ids), axis=axis)
        key = (lambda i: self._centers[i].x) if axis == 0 else (
            lambda i: self._centers[i].y
        )
        ids.sort(key=key)
        mid = len(ids) // 2
        node = KDNode(item_ids=tuple(ids), axis=axis)
        node.left = self._build(ids[:mid], axis=1 - axis)
        node.right = self._build(ids[mid:], axis=1 - axis)
        return node

    # ------------------------------------------------------------------
    # Signature compaction
    # ------------------------------------------------------------------
    def compact_node_count(self, ones: Set[int]) -> int:
        """Nodes retained after compacting a bitmap against this tree.

        ``ones`` is the set of item ids whose signature bit is 1.  A
        subtree collapses into a single node when every leaf below it
        has the same bit; the returned count is the number of nodes in
        the resulting compacted tree (internal + collapsed).
        """
        if self.root is None:
            return 0

        def visit(node: KDNode) -> Tuple[Optional[bool], int]:
            """Returns (uniform bit or None, compacted node count)."""
            if node.is_leaf:
                bits = {item in ones for item in node.item_ids}
                if len(bits) == 1:
                    return bits.pop(), 1
                return None, 1
            left_bit, left_count = visit(node.left)
            right_bit, right_count = visit(node.right)
            if left_bit is not None and left_bit == right_bit:
                return left_bit, 1  # collapse this whole subtree
            return None, 1 + left_count + right_count

        _, count = visit(self.root)
        return count

    def compact_size_bytes(self, ones: Set[int], bits_per_node: int = 2) -> int:
        """Approximate byte size of the compacted signature.

        Each retained node costs ``bits_per_node`` bits (a bit value
        plus a structure bit, as in a succinct tree encoding).
        """
        node_count = self.compact_node_count(ones)
        return (node_count * bits_per_node + 7) // 8
