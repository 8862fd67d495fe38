"""Tests for the SIF-G group index (Fig. 9 comparison point)."""

import pytest

from repro import Database, SKQuery
from repro.index.base import LoadCounters
from repro.index.sif_g import SIFGIndex
from repro.network.graph import NetworkPosition
from repro.network.objects import ObjectStore
from repro.storage.pagefile import DiskManager


@pytest.fixture()
def store(line_network):
    s = ObjectStore(line_network)
    # "hot" and "new" are frequent and co-occur only on edge 0.
    s.add(NetworkPosition(0, 10.0), {"hot", "new"})
    s.add(NetworkPosition(0, 20.0), {"hot"})
    s.add(NetworkPosition(1, 10.0), {"hot"})
    s.add(NetworkPosition(1, 20.0), {"new"})
    s.add(NetworkPosition(2, 10.0), {"hot", "rare1"})
    s.add(NetworkPosition(2, 20.0), {"new", "rare2"})
    s.freeze()
    return s


@pytest.fixture()
def index(store):
    disk = DiskManager(buffer_pages=64)
    return SIFGIndex(store, disk, top_terms=2, min_postings_pages=1)


class TestGroups:
    def test_group_built_for_top_pair(self, index):
        assert index.num_groups == 1

    def test_group_signature_prunes_non_cooccurring_edges(self, index):
        """Edges 1 and 2 contain both terms separately but never on one
        object's edge-pair list... the *group* list knows they never
        co-occur there, while plain SIF signatures would pass."""
        index.lifetime_counters = LoadCounters()
        # Edge 1: hot on one object, new on another -> group bit unset.
        got = index.load_objects(1, frozenset({"hot", "new"}))
        assert got == []
        assert index.lifetime_counters.edges_pruned_by_signature == 1
        assert index.lifetime_counters.objects_loaded == 0

    def test_group_true_hit(self, index):
        got = index.load_objects(0, frozenset({"hot", "new"}))
        assert [o.object_id for o in got] == [0]

    def test_single_term_falls_back_to_sif(self, index):
        got = {o.object_id for o in index.load_objects(0, frozenset({"hot"}))}
        assert got == {0, 1}

    def test_pair_plus_single_cover(self, index):
        got = index.load_objects(2, frozenset({"hot", "new", "rare1"}))
        assert got == []

    def test_group_size_accounted(self, index):
        assert index.group_size_bytes() > 0
        assert index.size_bytes() > index.group_size_bytes()


class TestGroupEdgeCases:
    def test_no_top_terms(self, store):
        disk = DiskManager(buffer_pages=64)
        index = SIFGIndex(store, disk, top_terms=0, file_prefix="g0")
        assert index.num_groups == 0
        got = {o.object_id for o in index.load_objects(0, frozenset({"hot"}))}
        assert got == {0, 1}

    def test_wait_group_never_cooccurs(self, line_network):
        s = ObjectStore(line_network)
        s.add(NetworkPosition(0, 1.0), {"a"})
        s.add(NetworkPosition(0, 2.0), {"b"})
        s.freeze()
        disk = DiskManager(buffer_pages=64)
        index = SIFGIndex(s, disk, top_terms=2, min_postings_pages=1)
        # a and b never co-occur on any object: no group list exists,
        # queries fall back to single-term intersection.
        assert index.num_groups == 0
        assert index.load_objects(0, frozenset({"a", "b"})) == []


def test_a_group_run_on_page_zero_is_read(line_network):
    """The first pair's list opens the group file, so its first edge's
    run is page 0 — a falsy ``int`` that must still be read."""
    db = Database(line_network, buffer_pages=64)
    for edge_id in range(4):
        db.add_object(NetworkPosition(edge_id, 10.0), {"hot", "new"})
        db.add_object(NetworkPosition(edge_id, 20.0), {"hot"})
    db.add_object(NetworkPosition(1, 30.0), {"new"})
    db.freeze()
    sifg = db.build_index("sif-g", top_terms=2)
    inverted = db.build_index("if")
    (tree,) = sifg._group_trees.values()
    first_key, run = next(tree.items())
    assert run in (0, [0])  # page 0, as an int or a one-page list
    first_edge = first_key & 0xFFFFFF
    terms = frozenset({"hot", "new"})
    for edge_id in range(4):
        q = SKQuery.create(NetworkPosition(edge_id, 0.0), sorted(terms), 5000.0)
        got = sorted(db.sk_search(sifg, q).object_ids())
        assert got == sorted(db.sk_search(inverted, q).object_ids())
        assert len(got) == 4
    sifg.lifetime_counters = LoadCounters()
    loaded = sifg.load_objects(first_edge, terms)
    assert [o.keywords for o in loaded] == [terms]
    assert sifg.lifetime_counters.objects_loaded == 1
