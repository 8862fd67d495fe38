"""Tests for the boolean SK kNN search."""

from itertools import islice

import pytest

from repro.core.ine import INEExpansion
from repro.core.knn import SKkNNQuery
from repro.errors import QueryError
from tests.reference import network_distance


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

    @pytest.mark.parametrize("field", ["horizon"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
    def test_radii_must_be_positive_numbers(self, tiny_db, field, value):
        """A zero, negative or nan radius is refused up front: the
        expansion it bounds would reach nothing (nan: compare false)."""
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

    def test_is_one_expansion_stopped_at_the_kth_item(self, tiny_db, sif):
        """kNN settles exactly the nodes a single INE expansion settles
        on its way to the k-th arrival — no restarted rounds."""
        for obj in list(tiny_db.store)[:5]:
            # The object's own (often rare) keyword: 8 matches lie past
            # any first-guess radius for two of these five.
            term = sorted(obj.keywords)[0]
            query = SKkNNQuery.create(obj.position, [term], k=8)
            result = tiny_db.sk_knn(sif, query)
            expansion = INEExpansion(
                tiny_db.ccam, tiny_db.network, sif, query.position,
                query.terms, query.horizon,
            )
            want = list(islice(expansion.run(), query.k))
            assert [it.object.object_id for it in result] == [
                it.object.object_id for it in want
            ]
            assert result.stats.nodes_accessed == expansion.stats.nodes_accessed
            assert result.stats.edges_accessed == expansion.stats.edges_accessed

    def test_kth_distance(self, tiny_db, sif):
        freq = tiny_db.store.keyword_frequencies()
        top_term = max(freq, key=freq.get)
        obj = next(iter(tiny_db.store))
        result = tiny_db.sk_knn(
            sif, SKkNNQuery.create(obj.position, [top_term], k=3)
        )
        if result.items:
            assert result.kth_distance == result.items[-1].distance
