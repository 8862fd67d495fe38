"""Tests for the inverted file index internals."""

import pytest

from repro.index.base import LoadCounters
from repro.index.inverted_file import (
    InvertedFileIndex,
    edge_zorder_key,
    pack_postings,
    rarest_first,
    run_pages,
)
from repro.network.graph import NetworkPosition
from repro.network.objects import ObjectStore
from repro.storage.pagefile import DiskManager


@pytest.fixture()
def store(line_network):
    s = ObjectStore(line_network)
    s.add(NetworkPosition(0, 10.0), {"pizza", "bar"})
    s.add(NetworkPosition(0, 20.0), {"pizza"})
    s.add(NetworkPosition(1, 30.0), {"bar"})
    s.add(NetworkPosition(3, 40.0), {"pizza", "bar", "cafe"})
    s.freeze()
    return s


@pytest.fixture()
def index(store):
    disk = DiskManager(buffer_pages=64)
    return InvertedFileIndex(store, disk)


class TestEdgeKeys:
    def test_keys_unique_across_edges(self, line_network):
        keys = {
            edge_zorder_key(line_network, e.edge_id)
            for e in line_network.edges()
        }
        assert len(keys) == line_network.num_edges

    def test_key_embeds_edge_id(self, line_network):
        key = edge_zorder_key(line_network, 2)
        assert key & 0xFFFFFF == 2


class TestPackPostings:
    def test_small_lists_share_pages(self):
        disk = DiskManager()
        file = disk.create_file("p", category="inverted")
        postings = [(k, k * 10, 0.0) for k in range(10)]
        edge_pages = pack_postings(file, postings)
        assert file.num_pages == 1
        # A run on one page is its bare page number.
        assert list(edge_pages.values()) == [0] * 10
        assert all(type(pages) is int for pages in edge_pages.values())

    def test_large_list_spans_pages(self):
        disk = DiskManager()
        file = disk.create_file("p", category="inverted")
        postings = [(7, i, 0.0) for i in range(600)]
        edge_pages = pack_postings(file, postings)
        assert file.num_pages == 3
        assert edge_pages[(7,)] == [0, 1, 2]

    def test_boundary_edges_listed_once_per_page(self):
        disk = DiskManager()
        file = disk.create_file("p", category="inverted")
        postings = [(1, i, 0.0) for i in range(200)] + [(2, i, 0.0) for i in range(200)]
        edge_pages = pack_postings(file, postings)
        # Page 0 holds edge 1's 200 postings and the first 56 of edge
        # 2's, which continue on page 1.
        assert edge_pages == {(1,): 0, (2,): [0, 1]}
        for pages in edge_pages.values():
            assert len(run_pages(pages)) == len(set(run_pages(pages)))

    def test_pages_hold_the_postings_in_order(self):
        disk = DiskManager()
        file = disk.create_file("p", category="inverted")
        postings = [(k // 3, k, 0.0) for k in range(700)]
        pack_postings(file, postings)
        pages = [file.read_unbuffered(n) for n in range(file.num_pages)]
        assert [len(page) for page in pages] == [256, 256, 188]
        assert [p for page in pages for p in page] == postings
        assert file._pages[2].size_bytes == 188 * 16

    def test_sif_p_prefix_files_by_edge_and_virtual_edge(self):
        """SIF-P's layout through the same packer: postings are filed
        under their first two fields, ``(edge_key, v_idx)``."""
        disk = DiskManager()
        file = disk.create_file("p", category="inverted")
        postings = (
            [(1, 0, i, 0.0) for i in range(100)]
            + [(1, 1, i, 0.0) for i in range(100, 300)]
            + [(2, 0, i, 0.0) for i in range(300, 310)]
        )
        ve_pages = pack_postings(file, postings, width=2)
        assert file.num_pages == 2
        assert ve_pages == {(1, 0): 0, (1, 1): [0, 1], (2, 0): 1}
        assert file.read_unbuffered(1)[0] == (1, 1, 256, 0.0)


class TestTermOrder:
    def test_rarest_first_ties_by_term(self, store):
        # df: cafe 1, bar 3, pizza 3, sushi 0.
        terms = frozenset({"pizza", "cafe", "bar", "sushi"})
        assert rarest_first(store, terms) == ["sushi", "cafe", "bar", "pizza"]

    def test_an_empty_list_does_not_stop_the_and(self, index):
        """Edge 1 carries "bar" but not the rarer "cafe": the miss
        comes first, and the postings of "bar" are fetched all the
        same — the descent and the load are IF's cost model."""
        index.lifetime_counters = LoadCounters()
        assert index.load_objects(1, frozenset({"bar", "cafe"})) == []
        assert index.lifetime_counters.objects_loaded == 1
        assert index.lifetime_counters.false_hit_objects == 1


class TestLoadObjects:
    def test_single_term(self, index):
        got = {o.object_id for o in index.load_objects(0, frozenset({"pizza"}))}
        assert got == {0, 1}

    def test_and_semantics(self, index):
        got = {o.object_id for o in index.load_objects(0, frozenset({"pizza", "bar"}))}
        assert got == {0}

    def test_term_absent_on_edge(self, index):
        assert index.load_objects(1, frozenset({"pizza"})) == []

    def test_unknown_term(self, index):
        assert index.load_objects(0, frozenset({"sushi"})) == []

    def test_empty_edge(self, index):
        assert index.load_objects(2, frozenset({"pizza"})) == []

    def test_false_hit_counting(self, index):
        index.lifetime_counters = LoadCounters()
        # Edge 0 has pizza objects and bar objects but the pair {bar,
        # cafe} matches nothing: postings for bar are loaded in vain.
        index.load_objects(0, frozenset({"bar", "cafe"}))
        counters = index.lifetime_counters
        assert counters.false_hit_objects == counters.objects_loaded >= 1

    def test_true_hit_not_counted_as_false(self, index):
        index.lifetime_counters = LoadCounters()
        assert len(index.load_objects(0, frozenset({"pizza"}))) == 2
        assert index.lifetime_counters.false_hit_objects == 0

    def test_postings_pages_of(self, index):
        assert index.postings_pages_of("pizza") >= 1
        assert index.postings_pages_of("nope") == 0

    def test_io_charged_per_query_keyword(self, store):
        disk = DiskManager(buffer_pages=0)
        index = InvertedFileIndex(store, disk, file_prefix="io")
        disk.stats.reset()
        index.load_objects(0, frozenset({"pizza", "bar"}))
        two_term = disk.stats.logical_reads
        disk.stats.reset()
        index.load_objects(0, frozenset({"pizza"}))
        one_term = disk.stats.logical_reads
        assert two_term > one_term > 0
