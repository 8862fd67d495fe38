"""Tests for the boolean SK kNN search: an SK query with a ``limit``."""

from itertools import islice

import pytest

from repro import SKQuery
from repro.core.ine import INEExpansion
from repro.datasets.catalog import build_dataset
from repro.errors import QueryError
from tests.conftest import TINY_PROFILE
from tests.reference import network_distance

#: The radius of a kNN query that should reach as far as it must.
HORIZON = 1e9


def knn(position, terms, k, horizon=HORIZON):
    return SKQuery.create(position, terms, horizon, limit=k)


@pytest.fixture(scope="module")
def sif(tiny_db):
    return tiny_db.build_index("sif", file_prefix="knn-sif")


def brute_force_knn(db, position, terms, k):
    scored = []
    for obj in db.store:
        if obj.contains_all(terms):
            d = network_distance(db.network, db.network, position, obj.position)
            scored.append((d, obj.object_id))
    scored.sort()
    return scored[:k]


class TestValidation:
    def test_empty_terms(self, tiny_db):
        pos = next(iter(tiny_db.store)).position
        with pytest.raises(QueryError):
            knn(pos, [], k=3)

    def test_bad_k(self, tiny_db):
        pos = next(iter(tiny_db.store)).position
        with pytest.raises(QueryError):
            knn(pos, ["a"], k=0)

    def test_bad_horizon(self, tiny_db):
        pos = next(iter(tiny_db.store)).position
        with pytest.raises(QueryError):
            knn(pos, ["a"], k=1, horizon=-5)

    @pytest.mark.parametrize("field", ["horizon"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
    def test_radii_must_be_positive_numbers(self, tiny_db, field, value):
        """A zero, negative or nan radius is refused up front: the
        expansion it bounds would reach nothing (nan: compare false)."""
        pos = next(iter(tiny_db.store)).position
        with pytest.raises(QueryError):
            knn(pos, ["a"], k=1, **{field: value})


class TestCorrectness:
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_matches_brute_force(self, tiny_db, sif, k):
        freq = tiny_db.store.keyword_frequencies()
        top_term = max(freq, key=freq.get)
        for obj in list(tiny_db.store)[:5]:
            result = tiny_db.sk_search(sif, knn(obj.position, [top_term], k))
            expected = brute_force_knn(tiny_db, obj.position, {top_term}, k)
            assert len(result) == len(expected)
            got = [(it.distance, it.object.object_id) for it in result]
            for (gd, _gid), (ed, _eid) in zip(got, expected):
                assert gd == pytest.approx(ed, abs=1e-6)

    def test_ordered_by_distance(self, tiny_db, sif):
        obj = next(iter(tiny_db.store))
        term = sorted(obj.keywords)[0]
        result = tiny_db.sk_search(sif, knn(obj.position, [term], k=6))
        dists = [it.distance for it in result]
        assert dists == sorted(dists)

    def test_fewer_matches_than_k(self, tiny_db, sif):
        """A selective conjunction with a bounded horizon returns what
        exists without spinning forever."""
        obj = next(iter(tiny_db.store))
        terms = sorted(obj.keywords)[:3] or sorted(obj.keywords)
        query = knn(obj.position, terms, k=50, horizon=20000.0)
        result = tiny_db.sk_search(sif, query)
        assert len(result) <= 50
        assert all(it.object.contains_all(frozenset(terms)) for it in result)

    def test_is_one_expansion_stopped_at_the_kth_item(self, tiny_db, sif):
        """kNN settles exactly the nodes a single INE expansion settles
        on its way to the k-th arrival — no restarted rounds."""
        for obj in list(tiny_db.store)[:5]:
            # The object's own (often rare) keyword: 8 matches lie past
            # any first-guess radius for two of these five.
            term = sorted(obj.keywords)[0]
            query = knn(obj.position, [term], k=8)
            result = tiny_db.sk_search(sif, query)
            expansion = INEExpansion(
                tiny_db.ccam, tiny_db.network, sif, query.position,
                query.terms, query.delta_max,
            )
            want = list(islice(expansion.run(), query.limit))
            assert [it.object.object_id for it in result] == [
                it.object.object_id for it in want
            ]
            assert result.stats.nodes_accessed == expansion.stats.nodes_accessed
            assert result.stats.edges_accessed == expansion.stats.edges_accessed

    def test_kth_distance(self, tiny_db, sif):
        """The last of ``k`` items lies at the k-th nearest match's
        distance: a limited query is a prefix of the range query."""
        obj = next(iter(tiny_db.store))
        term = sorted(obj.keywords)[0]
        whole = tiny_db.sk_search(
            sif, SKQuery.create(obj.position, [term], 5000.0)
        )
        assert SKQuery.create(obj.position, [term], 5000.0).limit is None
        for k in (1, 2, len(whole) + 3):
            part = tiny_db.sk_search(
                sif, SKQuery.create(obj.position, [term], 5000.0, limit=k)
            )
            assert part.object_ids() == whole.object_ids()[:k]
            if part.items:
                assert part.items[-1].distance == (
                    whole.items[min(k, len(whole)) - 1].distance
                )


#: ``(object index, terms, k, ((object id, distance), ...), (nodes
#: accessed, edges accessed, objects loaded, physical reads))`` of SIF
#: kNN queries at the object's own position, each behind a cold buffer,
#: recorded from the kNN executor that preceded the ``limit`` field.
TINY_PINS = [
    (0, ('t0',), 1, ((0, 0.0),), (0, 1, 2, 1)),
    (0, ('t0',), 5, ((0, 0.0), (594, 108.226807), (682, 536.96493), (41, 557.740537), (674, 570.839561)), (3, 10, 9, 2)),
    (0, ('t72', 't8'), 3, ((0, 0.0), (41, 557.740537), (85, 2779.473372)), (18, 38, 13, 5)),
    (7, ('t13',), 5, ((7, 0.0), (373, 913.169273), (526, 1014.438792), (841, 4543.499502), (513, 5456.980672)), (28, 59, 6, 3)),
    (7, ('t5', 't69'), 3, ((7, 0.0), (652, 7339.577223), (351, 7413.461419)), (46, 91, 6, 5)),
    (42, ('t17',), 5, ((42, 0.0), (47, 135.631617), (706, 231.570534), (245, 361.591238), (845, 993.979061)), (5, 12, 5, 2)),
    (133, ('t58', 't74'), 3, ((133, 0.0), (438, 2036.400332), (218, 2388.524715)), (10, 20, 11, 3)),
]
SYN_PINS = [
    (0, ('t115',), 5, ((0, 0.0), (86, 896.194171), (281, 1452.637097), (118, 1919.568637), (229, 2858.846492)), (25, 51, 5, 4)),
    (7, ('t0',), 1, ((7, 0.0),), (0, 1, 1, 1)),
    (7, ('t40', 't80'), 3, ((7, 0.0), (673, 549.447806), (1642, 565.571698)), (2, 11, 16, 6)),
    (42, ('t116',), 5, ((42, 0.0), (606, 1281.469805), (905, 2699.446834), (562, 3706.29912), (168, 4940.153268)), (73, 151, 5, 5)),
    (133, ('t29', 't69'), 3, ((133, 0.0), (899, 3614.502182), (234, 4057.890469)), (48, 100, 6, 5)),
]


@pytest.mark.parametrize(
    "build, pins",
    [
        (lambda: build_dataset(TINY_PROFILE), TINY_PINS),
        (lambda: build_dataset("SYN", scale=0.1), SYN_PINS),
    ],
    ids=["TINY", "SYN-0.1"],
)
def test_limited_query_stops_where_the_knn_executor_stopped(build, pins):
    """The same answers, and the same nodes, edges, loads and page
    reads: the limited expansion stops at the node the kNN one did."""
    db = build()
    index = db.build_index("sif")
    objects = list(db.store)
    for i, terms, k, answer, counters in pins:
        db.disk.clear_buffer()
        result = db.sk_search(index, knn(objects[i].position, terms, k))
        assert [it.object.object_id for it in result] == [a for a, _ in answer]
        assert [it.distance for it in result] == pytest.approx(
            [d for _, d in answer], abs=1e-6
        )
        s = result.stats
        assert (
            s.nodes_accessed, s.edges_accessed, s.objects_loaded,
            s.physical_reads,
        ) == counters
