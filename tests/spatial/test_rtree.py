"""Tests for repro.spatial.rtree against brute-force references."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.spatial import rtree
from repro.spatial.geometry import MBR, Point
from repro.spatial.rtree import RTree, RTreeEntry
from repro.storage.pagefile import PAGE_SIZE, DiskManager


def with_fanout(file, fanout=None):
    """An R-tree on ``file`` with ``fanout`` entries a node (the
    page-sized :data:`~repro.spatial.rtree.FANOUT` when ``None``)."""
    with mock.patch.object(rtree, "FANOUT", fanout or rtree.FANOUT):
        return RTree(file)


def make_tree(entries, fanout=None):
    disk = DiskManager(buffer_pages=64)
    file = disk.create_file("rtree", category="rtree")
    tree = with_fanout(file, fanout)
    tree.bulk_load(entries)
    return tree, disk


def random_entries(n, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 1000, size=(n, 2))
    return [
        RTreeEntry(MBR(x, y, x, y), i) for i, (x, y) in enumerate(pts)
    ], pts


class TestBulkLoad:
    def test_empty_tree(self):
        tree, _ = make_tree([])
        assert len(tree) == 0
        assert list(tree.window(MBR(0, 0, 10, 10))) == []
        assert tree.nearest(Point(0, 0)) == []

    def test_double_build_rejected(self):
        tree, _ = make_tree([RTreeEntry(MBR(0, 0, 1, 1), 0)])
        with pytest.raises(StorageError):
            tree.bulk_load([])

    def test_small_fanout_builds_multiple_levels(self):
        entries, _ = random_entries(100)
        tree, disk = make_tree(entries, fanout=4)
        # 25 leaves, 7 nodes above them, 2 above those, and the root.
        assert disk.files()[0].num_pages == 25 + 7 + 2 + 1
        assert len(tree) == 100

    def test_invalid_fanout(self):
        # The fanout is what one page holds, and at least two.
        assert rtree.FANOUT >= 2
        used = rtree._NODE_HEADER_BYTES + rtree.FANOUT * rtree._ENTRY_BYTES
        assert used <= PAGE_SIZE < used + rtree._ENTRY_BYTES

    def test_all_entries_scan(self):
        entries, _ = random_entries(57)
        tree, _ = make_tree(entries, fanout=8)
        everything = MBR(0, 0, 1000, 1000)
        assert sorted(e.payload for e in tree.window(everything)) == list(
            range(57)
        )


class TestWindow:
    @pytest.mark.parametrize("fanout", [4, 16, None])
    def test_window_matches_brute_force(self, fanout):
        entries, pts = random_entries(300, seed=3)
        tree, _ = make_tree(entries, fanout=fanout)
        region = MBR(200, 200, 600, 700)
        expected = {
            i
            for i, (x, y) in enumerate(pts)
            if 200 <= x <= 600 and 200 <= y <= 700
        }
        got = {e.payload for e in tree.window(region)}
        assert got == expected

    def test_window_outside_space(self):
        entries, _ = random_entries(50)
        tree, _ = make_tree(entries)
        assert list(tree.window(MBR(5000, 5000, 6000, 6000))) == []

    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(0, 1000),
        st.floats(0, 1000),
        st.floats(0, 1000),
        st.floats(0, 1000),
    )
    def test_window_random_regions(self, x1, y1, x2, y2):
        entries, pts = random_entries(120, seed=8)
        tree, _ = make_tree(entries, fanout=8)
        region = MBR(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))
        expected = {
            i
            for i, (x, y) in enumerate(pts)
            if region.xmin <= x <= region.xmax and region.ymin <= y <= region.ymax
        }
        assert {e.payload for e in tree.window(region)} == expected


class TestNearest:
    def test_nearest_matches_brute_force(self):
        entries, pts = random_entries(200, seed=5)
        tree, _ = make_tree(entries, fanout=8)
        q = Point(321.0, 654.0)
        order = np.argsort([np.hypot(x - q.x, y - q.y) for x, y in pts])
        got = [e.payload for e in tree.nearest(q, k=5)]
        assert got == [int(i) for i in order[:5]]

    def test_nearest_k_larger_than_tree(self):
        entries, _ = random_entries(4)
        tree, _ = make_tree(entries)
        assert len(tree.nearest(Point(0, 0), k=10)) == 4

    def test_nearest_zero_k(self):
        entries, _ = random_entries(4)
        tree, _ = make_tree(entries)
        assert tree.nearest(Point(0, 0), k=0) == []


class TestIOAccounting:
    def test_window_charges_page_reads(self):
        entries, _ = random_entries(500, seed=2)
        disk = DiskManager(buffer_pages=0)  # no buffering: all physical
        file = disk.create_file("rt", category="rtree")
        tree = with_fanout(file, 16)
        tree.bulk_load(entries)
        disk.stats.reset()
        list(tree.window(MBR(0, 0, 1000, 1000)))
        # A full-space window must touch every node except the pinned
        # root: the whole file is leaves plus inner nodes.
        assert disk.stats.physical_reads == file.num_pages - 1

    def test_root_is_pinned(self):
        entries, _ = random_entries(10)
        disk = DiskManager(buffer_pages=0)
        file = disk.create_file("rt", category="rtree")
        tree = with_fanout(file, 32)  # single-node tree
        tree.bulk_load(entries)
        disk.stats.reset()
        list(tree.window(MBR(0, 0, 1000, 1000)))
        assert disk.stats.physical_reads == 0
