"""Tests for the disk-based B+-tree against dict/sorted-list references."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage.bplustree import BPlusTree
from repro.storage.pagefile import DiskManager


def make_tree(entries=None, **kw):
    disk = DiskManager(buffer_pages=1024)
    file = disk.create_file("bt", category="inverted")
    tree = BPlusTree(file, **kw)
    if entries is not None:
        tree.bulk_load(entries)
    return tree, disk


class TestBulkLoad:
    def test_empty(self):
        tree, _ = make_tree([])
        assert len(tree) == 0
        assert tree.search(5) is None
        assert list(tree.range(0, 100)) == []

    def test_single_entry(self):
        tree, _ = make_tree([(7, "seven")])
        assert tree.search(7) == "seven"
        assert tree.search(8) is None

    def test_requires_increasing_keys(self):
        tree, _ = make_tree()
        with pytest.raises(StorageError):
            tree.bulk_load([(2, "a"), (1, "b")])
        tree2, _ = make_tree()
        with pytest.raises(StorageError):
            tree2.bulk_load([(1, "a"), (1, "b")])

    def test_double_build_rejected(self):
        tree, _ = make_tree([(1, "a")])
        with pytest.raises(StorageError):
            tree.bulk_load([(2, "b")])

    def test_multi_level_tree(self):
        # Tiny entry sizes force realistic fanout; huge sizes force splits.
        entries = [(i, i * 10) for i in range(5000)]
        tree, _ = make_tree(entries, key_bytes=256, value_bytes=256)
        assert tree._height >= 3
        for key in (0, 1, 2499, 4998, 4999):
            assert tree.search(key) == key * 10

    def test_invalid_entry_bytes(self):
        disk = DiskManager()
        file = disk.create_file("bt", category="inverted")
        with pytest.raises(ValueError):
            BPlusTree(file, key_bytes=0)


class TestSearchAndRange:
    def test_search_all_keys(self):
        entries = [(i * 3, f"v{i}") for i in range(300)]
        tree, _ = make_tree(entries, key_bytes=64, value_bytes=64)
        for k, v in entries:
            assert tree.search(k) == v
        assert tree.search(1) is None
        assert tree.search(-5) is None
        assert tree.search(10**9) is None

    def test_range_matches_reference(self):
        entries = [(i * 2, i) for i in range(200)]
        tree, _ = make_tree(entries, key_bytes=64, value_bytes=64)
        got = list(tree.range(50, 120))
        expected = [(k, v) for k, v in entries if 50 <= k <= 120]
        assert got == expected

    def test_range_empty_interval(self):
        tree, _ = make_tree([(1, "a"), (5, "b")])
        assert list(tree.range(2, 4)) == []
        assert list(tree.range(10, 5)) == []

    def test_items_full_scan(self):
        entries = [(i, -i) for i in range(513)]
        tree, _ = make_tree(entries, key_bytes=32, value_bytes=32)
        assert list(tree.items()) == entries


class TestInsert:
    def test_insert_into_empty(self):
        tree, _ = make_tree()
        tree.insert(5, "five")
        assert tree.search(5) == "five"

    def test_insert_duplicate_rejected(self):
        tree, _ = make_tree([(5, "five")])
        with pytest.raises(StorageError):
            tree.insert(5, "again")

    def test_interleaved_inserts(self):
        tree, _ = make_tree([(i * 10, i) for i in range(50)], key_bytes=64,
                            value_bytes=64)
        for i in range(50):
            tree.insert(i * 10 + 5, -i)
        for i in range(50):
            assert tree.search(i * 10) == i
            assert tree.search(i * 10 + 5) == -i

    def test_inserts_force_splits(self):
        tree, _ = make_tree([], key_bytes=512, value_bytes=512)
        for i in range(200):
            tree.insert(i, i)
        assert tree._height >= 2
        assert [k for k, _ in tree.items()] == list(range(200))

    def test_descending_inserts(self):
        tree, _ = make_tree([], key_bytes=512, value_bytes=512)
        for i in reversed(range(150)):
            tree.insert(i, str(i))
        assert [k for k, _ in tree.items()] == list(range(150))
        assert tree.search(149) == "149"


class TestReplace:
    # 256-byte entries: 7 to a leaf, 15 children to a node, so these
    # sizes bulk-load one to four levels.
    @pytest.mark.parametrize("n,height", [(5, 1), (50, 2), (500, 3), (5000, 4)])
    def test_overwrites_in_place_and_charges_nothing(self, n, height):
        tree, disk = make_tree(
            [(i, i) for i in range(n)], key_bytes=256, value_bytes=256
        )
        assert tree._height == height
        root = tree._root_page
        before = disk.stats.snapshot()
        changed = {0: [0, 1], n // 2: [n // 2, n], n - 1: 7}
        for key, value in changed.items():
            tree.replace(key, value)
        assert disk.stats.snapshot() == before
        assert (tree._root_page, tree._height, len(tree)) == (root, height, n)
        expected = [(i, changed.get(i, i)) for i in range(n)]
        assert list(tree.items()) == expected
        for key, value in changed.items():
            assert tree.search(key) == value

    def test_missing_key_raises(self):
        tree, disk = make_tree(
            [(i, i) for i in range(0, 100, 2)], key_bytes=256, value_bytes=256
        )
        before = disk.stats.snapshot()
        for key in (-1, 51, 100):
            with pytest.raises(StorageError):
                tree.replace(key, [key])
        assert disk.stats.snapshot() == before
        assert list(tree.items()) == [(i, i) for i in range(0, 100, 2)]

    def test_empty_tree_raises(self):
        tree, _ = make_tree()
        with pytest.raises(StorageError):
            tree.replace(1, [1])


class TestIOAccounting:
    def test_search_charges_descent_but_not_root(self):
        entries = [(i, i) for i in range(2000)]
        disk = DiskManager(buffer_pages=0)
        file = disk.create_file("bt", category="inverted")
        tree = BPlusTree(file, key_bytes=128, value_bytes=128)
        tree.bulk_load(entries)
        disk.stats.reset()
        tree.search(777)
        # Height - 1 reads: every level except the pinned root.
        assert disk.stats.physical_reads == tree._height - 1

    def test_unpinned_root_charges_full_height(self):
        entries = [(i, i) for i in range(2000)]
        disk = DiskManager(buffer_pages=0)
        file = disk.create_file("bt", category="inverted")
        tree = BPlusTree(file, key_bytes=128, value_bytes=128, pin_root=False)
        tree.bulk_load(entries)
        disk.stats.reset()
        tree.search(777)
        assert disk.stats.physical_reads == tree._height


@settings(max_examples=30, deadline=None)
@given(st.dictionaries(st.integers(0, 10_000), st.integers(), max_size=300))
def test_bulk_load_matches_dict(mapping):
    entries = sorted(mapping.items())
    tree, _ = make_tree(entries, key_bytes=64, value_bytes=64)
    for k, v in entries:
        assert tree.search(k) == v
    assert list(tree.items()) == entries


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.integers(0, 1000), unique=True, max_size=150),
)
def test_insert_matches_sorted_reference(keys):
    tree, _ = make_tree([], key_bytes=256, value_bytes=256)
    for k in keys:
        tree.insert(k, k * 2)
    assert [k for k, _ in tree.items()] == sorted(keys)
    for k in keys:
        assert tree.search(k) == k * 2
