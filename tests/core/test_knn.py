"""Tests for the boolean SK kNN search."""

import pytest

from repro.core.knn import SKkNNQuery
from repro.errors import QueryError
from repro.network.distance import network_distance


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
            SKkNNQuery.create(pos, [], k=3)

    def test_bad_k(self, tiny_db):
        pos = next(iter(tiny_db.store)).position
        with pytest.raises(QueryError):
            SKkNNQuery.create(pos, ["a"], k=0)

    def test_bad_horizon(self, tiny_db):
        pos = next(iter(tiny_db.store)).position
        with pytest.raises(QueryError):
            SKkNNQuery.create(pos, ["a"], k=1, horizon=-5)

    @pytest.mark.parametrize("field", ["horizon", "initial_radius"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
    def test_radii_must_be_positive_numbers(self, tiny_db, field, value):
        """A zero, negative or nan radius is refused up front: doubling
        it never reaches the horizon, so the search would not return."""
        pos = next(iter(tiny_db.store)).position
        with pytest.raises(QueryError):
            SKkNNQuery.create(pos, ["a"], k=1, **{field: value})


class TestCorrectness:
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_matches_brute_force(self, tiny_db, sif, k):
        freq = tiny_db.store.keyword_frequencies()
        top_term = max(freq, key=freq.get)
        for obj in list(tiny_db.store)[:5]:
            query = SKkNNQuery.create(obj.position, [top_term], k=k)
            result = tiny_db.sk_knn(sif, query)
            expected = brute_force_knn(tiny_db, obj.position, {top_term}, k)
            assert len(result) == len(expected)
            got = [(it.distance, it.object.object_id) for it in result]
            for (gd, _gid), (ed, _eid) in zip(got, expected):
                assert gd == pytest.approx(ed, abs=1e-6)

    def test_ordered_by_distance(self, tiny_db, sif):
        obj = next(iter(tiny_db.store))
        term = sorted(obj.keywords)[0]
        result = tiny_db.sk_knn(sif, SKkNNQuery.create(obj.position, [term], k=6))
        dists = [it.distance for it in result]
        assert dists == sorted(dists)

    def test_fewer_matches_than_k(self, tiny_db, sif):
        """A selective conjunction with a bounded horizon returns what
        exists without spinning forever."""
        obj = next(iter(tiny_db.store))
        terms = sorted(obj.keywords)[:3] or sorted(obj.keywords)
        query = SKkNNQuery.create(obj.position, terms, k=50, horizon=20000.0)
        result = tiny_db.sk_knn(sif, query)
        assert len(result) <= 50
        assert all(it.object.contains_all(frozenset(terms)) for it in result)

    def test_adaptive_radius_growth(self, tiny_db, sif):
        """A tiny initial radius must still find the answers."""
        freq = tiny_db.store.keyword_frequencies()
        top_term = max(freq, key=freq.get)
        obj = next(iter(tiny_db.store))
        small = tiny_db.sk_knn(
            sif,
            SKkNNQuery.create(obj.position, [top_term], k=4,
                              initial_radius=10.0),
        )
        large = tiny_db.sk_knn(
            sif,
            SKkNNQuery.create(obj.position, [top_term], k=4,
                              initial_radius=50000.0),
        )
        assert [it.object.object_id for it in small] == [
            it.object.object_id for it in large
        ]

    def test_kth_distance(self, tiny_db, sif):
        freq = tiny_db.store.keyword_frequencies()
        top_term = max(freq, key=freq.get)
        obj = next(iter(tiny_db.store))
        result = tiny_db.sk_knn(
            sif, SKkNNQuery.create(obj.position, [top_term], k=3)
        )
        if result.items:
            assert result.kth_distance == result.items[-1].distance
