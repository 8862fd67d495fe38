"""Tests for the edge signature file (paper §3.1)."""

import pytest

from repro.index.inverted_file import InvertedFileIndex
from repro.index.signature import SignatureFile
from repro.network.graph import NetworkPosition, RoadNetwork
from repro.network.objects import ObjectStore
from repro.storage.pagefile import DiskManager
from tests.reference import signature_edges


@pytest.fixture()
def small_store(line_network):
    store = ObjectStore(line_network)
    store.add(NetworkPosition(0, 10.0), {"t1", "t3"})
    store.add(NetworkPosition(0, 20.0), {"t2", "t3"})
    store.add(NetworkPosition(1, 30.0), {"t1"})
    store.add(NetworkPosition(2, 40.0), {"t4"})
    store.freeze()
    return store


class TestBits:
    def test_bit_semantics(self, small_store):
        sig = SignatureFile(small_store)
        assert sig.test(0, ["t1"]) is True
        assert sig.test(0, ["t2"]) is True
        assert sig.test(0, ["t4"]) is False
        assert sig.test(1, ["t1"]) is True
        assert sig.test(1, ["t3"]) is False
        assert sig.test(2, ["t4"]) is True

    def test_and_semantics_test(self, small_store):
        sig = SignatureFile(small_store)
        assert sig.test(0, {"t1", "t3"}) is True
        assert sig.test(0, {"t1", "t4"}) is False  # t4 not on edge 0
        assert sig.test(1, {"t1"}) is True
        assert sig.test(1, {"t1", "t2"}) is False

    def test_unknown_term_passes_open(self, small_store):
        # A term with no signature cannot prune (conservative).
        sig = SignatureFile(small_store)
        assert sig.test(0, ["never-seen"]) is True

    def test_empty_terms_passes(self, small_store):
        sig = SignatureFile(small_store)
        assert sig.test(0, []) is True

    def test_edges_of(self, small_store):
        sig = SignatureFile(small_store)
        assert signature_edges(sig, "t1") == frozenset({0, 1})


class TestRareKeywordRule:
    def test_rare_terms_skip_signature(self, small_store):
        disk = DiskManager(buffer_pages=64)
        inv = InvertedFileIndex(small_store, disk)
        # Every term here fits in one postings page, so with the
        # paper's rule none gets a signature.
        sig = SignatureFile(small_store, inverted=inv, min_postings_pages=2)
        assert sig.num_signed_terms == 0
        assert all(
            sig.combined_row([t]) is None for t in ("t1", "t2", "t3", "t4")
        )
        # And the test degenerates to always-pass.
        assert sig.test(2, {"t1", "t2"}) is True

    def test_threshold_one_signs_everything(self, small_store):
        disk = DiskManager(buffer_pages=64)
        inv = InvertedFileIndex(small_store, disk, file_prefix="if2")
        sig = SignatureFile(small_store, inverted=inv, min_postings_pages=1)
        assert sig.num_signed_terms == 4


class TestSizeAccounting:
    def test_bitmap_fallback_size(self, small_store):
        sig = SignatureFile(small_store)
        # The raw fallback reports the actual packed representation:
        # 4 edges -> one 64-bit word per row, 4 signed terms.
        assert sig.size_bytes() == 4 * 8

    def test_kd_compacted_size_smaller_for_dense_terms(self):
        from repro.spatial.kdtree import KDTreePartition

        network = RoadNetwork()
        for i in range(33):
            network.add_node(i, i * 10.0, 0.0)
        for i in range(32):
            network.add_edge(i, i + 1)
        store = ObjectStore(network)
        for e in range(32):
            store.add(NetworkPosition(e, 1.0), {"everywhere"})
        store.add(NetworkPosition(7, 2.0), {"once"})
        store.freeze()
        kd = KDTreePartition([e.center for e in network.edges()])
        sig = SignatureFile(store, kd_partition=kd)
        dense = kd.compact_size_bytes(signature_edges(sig, "everywhere"))
        sparse = kd.compact_size_bytes(signature_edges(sig, "once"))
        # The uniformly-set bitmap collapses to almost nothing.
        assert dense < sparse
        assert sig.size_bytes() == dense + sparse
