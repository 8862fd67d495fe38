"""Tests for SIF-P internals: partitioning, per-virtual-edge pruning."""

import pytest

from repro.index.base import LoadCounters
from repro.index.sif_p import SIFPIndex
from repro.network.graph import NetworkPosition
from repro.network.objects import ObjectStore
from repro.storage.pagefile import DiskManager


@pytest.fixture()
def fig3_store(line_network):
    """The paper's Fig. 3 edge: five objects with known keywords."""
    s = ObjectStore(line_network)
    s.add(NetworkPosition(0, 10.0), {"t1", "t3"})
    s.add(NetworkPosition(0, 25.0), {"t2", "t3"})
    s.add(NetworkPosition(0, 50.0), {"t1"})
    s.add(NetworkPosition(0, 70.0), {"t1"})
    s.add(NetworkPosition(0, 90.0), {"t1", "t4"})
    # A second edge so not everything is on one edge.
    s.add(NetworkPosition(1, 10.0), {"t9"})
    s.freeze()
    return s


def fig3_log_builder(object_keywords, rng):
    return [
        (frozenset({"t1", "t3"}), 1 / 3),
        (frozenset({"t2", "t4"}), 1 / 3),
        (frozenset({"t1", "t2"}), 1 / 3),
    ]


@pytest.fixture()
def sifp(fig3_store):
    disk = DiskManager(buffer_pages=64)
    return SIFPIndex(
        fig3_store,
        disk,
        max_cuts=1,
        partition_fraction=1.0,
        log_builder=fig3_log_builder,
        min_postings_pages=1,
    )


class TestPartitioning:
    def test_paper_cut_is_chosen(self, sifp):
        # The optimal single cut separates {o1, o2} from {o3, o4, o5}.
        assert sifp.segments_of(0) == [(0, 1), (2, 4)]
        assert sifp.num_partitioned_edges() == 1

    def test_unpartitioned_edge_single_segment(self, sifp):
        assert sifp.segments_of(1) == [(0, 0)]


class TestVirtualEdgePruning:
    def test_fig3_false_hit_avoided(self, sifp):
        """q.T = {t2, t4} fails both virtual-edge signature tests."""
        sifp.lifetime_counters = LoadCounters()
        got = sifp.load_objects(0, frozenset({"t2", "t4"}))
        assert got == []
        assert sifp.lifetime_counters.edges_pruned_by_signature == 1
        assert sifp.lifetime_counters.objects_loaded == 0

    def test_fig3_partial_false_hit(self, sifp):
        """q.T = {t1, t2}: only the first virtual edge is loaded."""
        sifp.lifetime_counters = LoadCounters()
        got = sifp.load_objects(0, frozenset({"t1", "t2"}))
        assert got == []
        # Only e1 = {o1, o2} passes its signature; its two objects are
        # the false-hit cost (paper: ξ(q3, P) = 2).
        assert sifp.lifetime_counters.false_hit_objects == 2

    def test_true_hit_returns_object(self, sifp):
        got = sifp.load_objects(0, frozenset({"t1", "t3"}))
        assert [o.object_id for o in got] == [0]

    def test_single_term_queries(self, sifp):
        got = sifp.load_objects(0, frozenset({"t1"}))
        assert {o.object_id for o in got} == {0, 2, 3, 4}

    def test_absent_term_prunes(self, sifp):
        sifp.lifetime_counters = LoadCounters()
        assert sifp.load_objects(0, frozenset({"t7"})) == []
        assert sifp.lifetime_counters.edges_pruned_by_signature == 1

    def test_edge_without_objects(self, sifp):
        assert sifp.load_objects(3, frozenset({"t1"})) == []


class TestSizes:
    def test_signature_size_accounts_partitions(self, sifp):
        assert sifp.signature_size_bytes() > 0
        assert sifp.size_bytes() > sifp.signature_size_bytes()
