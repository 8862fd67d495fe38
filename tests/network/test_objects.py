"""Tests for the object store, its keyword sets and edge snapping."""

import pickle
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.catalog import build_dataset
from repro.errors import DatasetError
from repro.network.graph import NetworkPosition
from repro.network.objects import (
    Keywords,
    ObjectStore,
    SpatioTextualObject,
    build_edge_rtree,
    snap_point_to_edge,
)
from repro.spatial.geometry import Point
from repro.storage.pagefile import DiskManager
from tests.conftest import assert_catalogue_matches_recount, make_grid4


@pytest.fixture()
def store(line_network):
    return ObjectStore(line_network)


class TestStore:
    def test_add_and_get(self, store):
        obj = store.add(NetworkPosition(0, 10.0), {"pizza", "bar"})
        assert store.get(obj.object_id).keywords == frozenset({"pizza", "bar"})
        assert len(store) == 1

    def test_empty_keywords_rejected(self, store):
        with pytest.raises(DatasetError):
            store.add(NetworkPosition(0, 10.0), [])

    def test_offset_beyond_edge_rejected(self, store):
        with pytest.raises(DatasetError):
            store.add(NetworkPosition(0, 500.0), {"a"})

    def test_unknown_object(self, store):
        with pytest.raises(DatasetError):
            store.get(42)

    def test_objects_on_edge_sorted_by_offset(self, store):
        store.add(NetworkPosition(0, 80.0), {"c"})
        store.add(NetworkPosition(0, 10.0), {"a"})
        store.add(NetworkPosition(0, 40.0), {"b"})
        store.freeze()
        offsets = [o.position.offset for o in store.objects_on_edge(0)]
        assert offsets == [10.0, 40.0, 80.0]

    def test_objects_on_empty_edge(self, store):
        assert store.objects_on_edge(3) == []

    def test_contains_all_and_any(self, store):
        obj = store.add(NetworkPosition(0, 1.0), {"a", "b"})
        assert obj.contains_all({"a"})
        assert obj.contains_all({"a", "b"})
        assert not obj.contains_all({"a", "c"})

    def test_vocabulary_and_frequencies(self, store):
        store.add(NetworkPosition(0, 1.0), {"a", "b"})
        store.add(NetworkPosition(1, 1.0), {"a"})
        assert set(store.keyword_frequencies()) == {"a", "b"}
        assert store.keyword_frequencies() == {"a": 2, "b": 1}
        assert store.average_keywords_per_object() == pytest.approx(1.5)

    def test_object_point(self, store):
        obj = store.add(NetworkPosition(0, 25.0), {"a"})
        assert store.object_point(obj.object_id) == Point(25, 0)


# A six-term alphabet keeps keyword sets overlapping, so objects share
# terms and removals regularly take the last holder of one.
_KEYWORDS = st.frozensets(st.sampled_from("abcdef"), min_size=1, max_size=4)
_OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 11), _KEYWORDS),
        st.tuples(st.just("remove"), st.integers(0, 1 << 16)),
        st.tuples(
            st.just("rescale"), st.integers(0, 11),
            st.floats(0.25, 4.0, allow_nan=False),
        ),
    ),
    max_size=40,
)


class TestCatalogueCounters:
    @settings(max_examples=150, deadline=None)
    @given(_OPERATIONS)
    def test_counters_equal_a_recount(self, operations):
        network = make_grid4()
        store = ObjectStore(network)
        live = []
        assert_catalogue_matches_recount(store)
        for op in operations:
            if op[0] == "add":
                offset = network.edge(op[1]).weight / 2
                live.append(
                    store.add(NetworkPosition(op[1], offset), op[2]).object_id
                )
            elif op[0] == "remove":
                if not live:
                    continue
                store.remove(live.pop(op[1] % len(live)))
            else:
                # As Database.update_edge_weight does: the edge's weight
                # and its objects' offsets move together.
                weight = network.edge(op[1]).weight * op[2]
                network.update_edge_weight(op[1], weight)
                store.rescale_edge_offsets(op[1], op[2])
            assert_catalogue_matches_recount(store)

    def test_last_holder_takes_its_term_out_of_the_vocabulary(self, store):
        a = store.add(NetworkPosition(0, 1.0), {"shared", "only-a"})
        b = store.add(NetworkPosition(1, 1.0), {"shared"})
        store.remove(a.object_id)
        assert store.document_frequency("only-a") == 0
        assert "only-a" not in store.keyword_frequencies()
        assert set(store.keyword_frequencies()) == {"shared"}
        assert store.vocabulary_size == 1
        store.remove(b.object_id)
        assert store.vocabulary_size == 0
        assert store.keyword_frequencies() == {}
        assert store.average_keywords_per_object() == 0.0

    def test_keyword_frequencies_is_a_snapshot(self, store):
        store.add(NetworkPosition(0, 1.0), {"a"})
        snapshot = store.keyword_frequencies()
        snapshot["a"] = 99
        store.add(NetworkPosition(0, 2.0), {"a", "b"})
        assert snapshot == {"a": 99}
        assert store.keyword_frequencies() == {"a": 2, "b": 1}


_VOCAB = [f"t{i}" for i in range(12)]
# Lists, so that terms repeat.
_TERM_LISTS = st.lists(st.sampled_from(_VOCAB), max_size=20)


class TestKeywords:
    """An object's keywords are a sorted tuple that answers every set
    question as the frozenset of the same terms does."""

    @settings(max_examples=200)
    @given(_TERM_LISTS, _TERM_LISTS)
    def test_behaves_as_the_frozenset(self, terms, other_terms):
        kw, fs, other = Keywords(terms), frozenset(terms), frozenset(other_terms)
        assert list(kw) == sorted(fs)
        assert len(kw) == len(fs)
        assert [t in kw for t in _VOCAB] == [t in fs for t in _VOCAB]
        assert kw == fs and fs == kw and not kw != fs and not fs != kw
        assert (kw == other) == (fs == other) == (other == kw)
        assert (kw != other) == (fs != other) == (other != kw)
        assert (other <= kw) == (other <= fs) == (kw >= other)
        assert (kw <= other) == (fs <= other) == (other >= kw)
        assert (other < kw) == (other < fs) == (kw > other)
        assert (kw < other) == (fs < other) == (other > kw)
        assert hash(kw) == hash(fs)
        assert kw & other == fs & other == other & kw
        assert isinstance(kw & other, frozenset)
        assert isinstance(other & kw, frozenset)
        assert kw & set(other) == fs & other

    @given(_TERM_LISTS, _TERM_LISTS)
    def test_against_another_keywords(self, terms, other_terms):
        kw, other = Keywords(terms), Keywords(other_terms)
        fs, other_fs = frozenset(terms), frozenset(other_terms)
        assert (kw == other) == (fs == other_fs)
        assert (kw <= other) == (fs <= other_fs)
        assert (kw < other) == (fs < other_fs)
        assert (kw >= other) == (fs >= other_fs)
        assert (kw > other) == (fs > other_fs)
        assert kw & other == fs & other_fs

    @given(_TERM_LISTS)
    def test_pickle_round_trip(self, terms):
        kw = Keywords(terms)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(kw, protocol))
            assert type(back) is Keywords
            assert tuple(back) == tuple(kw)

    def test_a_tuple_of_the_same_terms_is_not_equal(self):
        kw = Keywords(["b", "a", "b"])
        assert tuple(kw) == ("a", "b")
        assert kw != ("a", "b") and ("a", "b") != kw
        assert kw != ["a", "b"]
        assert Keywords(kw) is kw

    def test_the_object_normalises_its_keywords(self):
        position = NetworkPosition(0, 1.0)
        obj = SpatioTextualObject(7, position, {"pizza", "bar", "pizza"})
        assert type(obj.keywords) is Keywords
        assert tuple(obj.keywords) == ("bar", "pizza")
        assert obj == SpatioTextualObject(7, position, frozenset({"bar", "pizza"}))
        assert obj == SpatioTextualObject(7, position, Keywords(["pizza", "bar"]))
        assert hash(obj) == hash(SpatioTextualObject(7, position, ["bar", "pizza"]))
        back = pickle.loads(pickle.dumps(obj))
        assert back == obj and type(back.keywords) is Keywords

    def test_the_store_holds_keywords(self, store):
        obj = store.add(NetworkPosition(0, 10.0), ["pizza", "bar", "bar"])
        assert type(obj.keywords) is Keywords
        assert tuple(obj.keywords) == ("bar", "pizza")
        assert store.average_keywords_per_object() == 2

    @given(_TERM_LISTS, _TERM_LISTS)
    def test_what_perf_reads(self, terms, query_terms):
        # perf/verify.py checks ``op.terms <= item.object.keywords``;
        # perf/workloads.py reads ``tuple(sorted(obj.keywords))``.
        obj = SpatioTextualObject(0, NetworkPosition(0, 0.0), terms)
        op_terms = frozenset(query_terms)
        assert (op_terms <= obj.keywords) == (op_terms <= frozenset(terms))
        assert tuple(sorted(obj.keywords)) == tuple(sorted(set(terms)))

    def test_a_synthetic_object_costs_a_tuple(self):
        # A frozenset per object averaged 728 B on SYN 0.1; the
        # sorted tuple, 40 B plus 8 B a term, averages 104 B.
        db = build_dataset("SYN", scale=0.1)
        sizes = [sys.getsizeof(o.keywords) for o in db.store]
        assert sum(sizes) / len(sizes) <= 250


class TestSnapping:
    def test_snap_onto_closest_edge(self, grid_network9):
        disk = DiskManager(buffer_pages=16)
        rtree = build_edge_rtree(grid_network9, disk.create_file("rt", "rtree"))
        # Slightly off the bottom edge between nodes 0 (0,0) and 1 (100,0).
        pos = snap_point_to_edge(grid_network9, rtree, Point(40.0, 7.0))
        edge = grid_network9.edge(pos.edge_id)
        assert {edge.n1, edge.n2} == {0, 1}
        assert pos.offset == pytest.approx(40.0)

    def test_snap_point_on_node(self, grid_network9):
        disk = DiskManager(buffer_pages=16)
        rtree = build_edge_rtree(grid_network9, disk.create_file("rt", "rtree"))
        pos = snap_point_to_edge(grid_network9, rtree, Point(100.0, 100.0))
        p = grid_network9.position_point(pos)
        assert p.distance_to(Point(100, 100)) < 1e-6

    def test_snap_distances_are_minimal(self, grid_network9):
        import numpy as np
        from repro.spatial.geometry import project_onto_segment

        disk = DiskManager(buffer_pages=16)
        rtree = build_edge_rtree(grid_network9, disk.create_file("rt", "rtree"))
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = Point(float(rng.uniform(0, 200)), float(rng.uniform(0, 200)))
            pos = snap_point_to_edge(grid_network9, rtree, p)
            snapped = grid_network9.position_point(pos)
            best = min(
                p.distance_to(project_onto_segment(p, e.p1, e.p2)[0])
                for e in grid_network9.edges()
            )
            assert p.distance_to(snapped) == pytest.approx(best, abs=1e-6)
