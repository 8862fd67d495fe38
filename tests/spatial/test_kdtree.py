"""Tests for the KD-tree signature-compaction partitioner."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spatial.geometry import Point
from repro.spatial.kdtree import KDTreePartition


def num_nodes(tree):
    """Nodes of the uncompacted tree."""
    stack, count = [tree.root], 0
    while stack:
        node = stack.pop()
        count += 1
        if not node.is_leaf:
            stack.extend((node.left, node.right))
    return count


def random_centers(n, seed=0):
    rng = np.random.default_rng(seed)
    return [Point(float(x), float(y)) for x, y in rng.uniform(0, 100, size=(n, 2))]


class TestConstruction:
    def test_empty(self):
        tree = KDTreePartition([])
        assert tree.root is None
        assert tree.compact_node_count(set()) == 0

    def test_single_item(self):
        tree = KDTreePartition([Point(1, 2)])
        assert tree.root.is_leaf
        assert num_nodes(tree) == 1

    def test_invalid_leaf_size(self):
        with pytest.raises(ValueError):
            KDTreePartition([Point(0, 0)], leaf_size=0)

    def test_all_items_covered_once(self):
        centers = random_centers(33)
        tree = KDTreePartition(centers)
        leaves = []

        def collect(node):
            if node.is_leaf:
                leaves.extend(node.item_ids)
            else:
                collect(node.left)
                collect(node.right)

        collect(tree.root)
        assert sorted(leaves) == list(range(33))

    def test_node_count_linear(self):
        centers = random_centers(64)
        tree = KDTreePartition(centers)
        # A binary tree over n leaves has 2n - 1 nodes.
        assert num_nodes(tree) == 2 * 64 - 1


class TestCompaction:
    def test_uniform_zero_collapses_to_root(self):
        tree = KDTreePartition(random_centers(50))
        assert tree.compact_node_count(set()) == 1

    def test_uniform_one_collapses_to_root(self):
        tree = KDTreePartition(random_centers(50))
        assert tree.compact_node_count(set(range(50))) == 1

    def test_mixed_needs_more_nodes(self):
        centers = random_centers(64, seed=1)
        tree = KDTreePartition(centers)
        # Alternate bits in space: clustered ones compact better than
        # scattered ones.
        left_half = {i for i, c in enumerate(centers) if c.x < 50}
        rng = np.random.default_rng(2)
        scattered = set(rng.choice(64, size=len(left_half), replace=False).tolist())
        assert tree.compact_node_count(left_half) <= tree.compact_node_count(scattered)

    def test_single_one_cost_logarithmic(self):
        tree = KDTreePartition(random_centers(128, seed=3))
        count = tree.compact_node_count({5})
        # Path from root to one leaf plus collapsed siblings: O(log n).
        assert count <= 2 * 8 + 1

    def test_size_bytes_positive_and_monotone_wrt_nodes(self):
        tree = KDTreePartition(random_centers(64, seed=4))
        all_ones = set(range(64))
        single = {0}
        assert tree.compact_size_bytes(all_ones) <= tree.compact_size_bytes(single)

    @settings(max_examples=20, deadline=None)
    @given(st.sets(st.integers(0, 31)))
    def test_count_bounded_by_full_tree(self, ones):
        tree = KDTreePartition(random_centers(32, seed=7))
        count = tree.compact_node_count(ones)
        assert 1 <= count <= num_nodes(tree)

    def test_leaf_size_greater_than_one(self):
        centers = random_centers(40, seed=9)
        tree = KDTreePartition(centers, leaf_size=4)
        assert num_nodes(tree) < 2 * 40 - 1
        assert tree.compact_node_count(set()) == 1
        assert tree.compact_node_count({0}) >= 1
