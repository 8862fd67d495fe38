"""Semantic result cache: journal-validated survival across updates."""

import pytest

from repro import Database, NetworkPosition
from repro.core.queries import DiversifiedSKQuery
from repro.engine.plan import plan_diversified
from repro.core.updates import PAIRWISE_RADIUS_FACTOR
from repro.engine.result_cache import ResultCache


@pytest.fixture()
def cached_db(grid_network9):
    db = Database(grid_network9, buffer_pages=64)
    db.add_object(NetworkPosition(0, 20.0), {"pizza"})
    db.add_object(NetworkPosition(3, 50.0), {"pizza", "bar"})
    db.add_object(NetworkPosition(8, 30.0), {"sushi"})
    db.freeze()
    db.use_result_cache(max_entries=8)
    return db


def run(db, index, query, method="seq"):
    return db.engine.execute(plan_diversified(db, index, query, method=method))


def make_query(terms=("pizza",), delta_max=500.0, k=2):
    return DiversifiedSKQuery.create(
        NetworkPosition(0, 0.0), list(terms), delta_max, k, 0.8
    )


class TestHitAndMiss:
    def test_repeat_query_hits(self, cached_db):
        index = cached_db.build_index("sif")
        q = make_query()
        first = run(cached_db, index, q)
        assert first.stats.result_cache_hit is False
        second = run(cached_db, index, q)
        assert second.stats.result_cache_hit is True
        assert second.object_ids() == first.object_ids()
        assert second.objective_value == first.objective_value
        stats = cached_db.result_cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert cached_db.metrics.counters()["query.result_cache_hits"] == 1

    def test_key_includes_lambda_k_and_algorithm(self, cached_db):
        index = cached_db.build_index("sif")
        run(cached_db, index, make_query())
        assert run(cached_db, index, make_query(k=3)).stats.result_cache_hit is False
        other_lambda = DiversifiedSKQuery.create(
            NetworkPosition(0, 0.0), ["pizza"], 500.0, 2, 0.3
        )
        assert run(cached_db, index, other_lambda).stats.result_cache_hit is False
        assert (
            run(cached_db, index, make_query(), method="com")
            .stats.result_cache_hit
            is False
        )

    def test_lru_eviction(self, cached_db):
        cached_db.result_cache = ResultCache(max_entries=2)
        index = cached_db.build_index("sif")
        q1, q2, q3 = (
            make_query(delta_max=d) for d in (400.0, 500.0, 600.0)
        )
        for q in (q1, q2, q3):
            run(cached_db, index, q)
        assert cached_db.result_cache.stats()["evictions"] == 1
        # q1 was evicted; q2/q3 still hit.
        assert run(cached_db, index, q2).stats.result_cache_hit is True
        assert run(cached_db, index, q1).stats.result_cache_hit is False


class TestSurvival:
    def test_survives_keyword_irrelevant_insert(self, cached_db):
        index = cached_db.build_index("sif")
        q = make_query()
        run(cached_db, index, q)
        # Nearby object without the query keyword: AND semantics make it
        # irrelevant no matter how close it is.
        cached_db.insert_object(
            NetworkPosition(0, 10.0), {"sushi"}, indexes=(index,)
        )
        assert run(cached_db, index, q).stats.result_cache_hit is True
        assert cached_db.result_cache.stats()["invalidated"] == 0

    def test_survives_spatially_far_insert(self, cached_db):
        index = cached_db.build_index("sif")
        q = make_query(delta_max=50.0)
        run(cached_db, index, q)
        # Matching keywords, but well past delta_max even under the
        # conservative Euclidean lower bound.
        cached_db.insert_object(
            NetworkPosition(11, 50.0), {"pizza"}, indexes=(index,)
        )
        assert run(cached_db, index, q).stats.result_cache_hit is True

    def test_survives_far_edge_reweight(self, cached_db):
        index = cached_db.build_index("sif")
        q = make_query(delta_max=30.0)
        run(cached_db, index, q)
        # Edge 11 is the far corner of the grid; with delta_max=30 the
        # pairwise radius is ~90, far short of it.
        far = cached_db.network.edge(11)
        assert (
            cached_db.min_weight_per_length()
            * cached_db.network.position_point(q.position).distance_to(far.p1)
            > PAIRWISE_RADIUS_FACTOR * q.delta_max
        )
        cached_db.update_edge_weight(11, far.weight * 2.0)
        assert run(cached_db, index, q).stats.result_cache_hit is True

    def test_surviving_probe_advances_entry_epoch(self, cached_db):
        index = cached_db.build_index("sif")
        q = make_query()
        run(cached_db, index, q)
        cached_db.insert_object(
            NetworkPosition(0, 10.0), {"sushi"}, indexes=(index,)
        )
        run(cached_db, index, q)  # survives, advances valid_epoch
        entry = next(iter(cached_db.result_cache._entries.values()))
        assert entry.valid_epoch == cached_db.data_version


class TestInvalidation:
    def test_relevant_insert_invalidates(self, cached_db):
        index = cached_db.build_index("sif")
        q = make_query()
        stale = run(cached_db, index, q)
        inserted = cached_db.insert_object(
            NetworkPosition(0, 10.0), {"pizza", "extra"}, indexes=(index,)
        )
        fresh = run(cached_db, index, q)
        assert fresh.stats.result_cache_hit is False
        assert inserted.object_id in fresh.object_ids()
        assert inserted.object_id not in stale.object_ids()
        assert cached_db.result_cache.stats()["invalidated"] == 1

    def test_relevant_delete_invalidates(self, cached_db):
        index = cached_db.build_index("sif")
        q = make_query()
        stale = run(cached_db, index, q)
        victim = stale.object_ids()[0]
        cached_db.delete_object(victim, indexes=(index,))
        fresh = run(cached_db, index, q)
        assert fresh.stats.result_cache_hit is False
        assert victim not in fresh.object_ids()

    def test_near_edge_reweight_invalidates(self, cached_db):
        index = cached_db.build_index("sif")
        q = make_query()
        run(cached_db, index, q)
        cached_db.update_edge_weight(0, 37.0)  # the query's own edge
        assert run(cached_db, index, q).stats.result_cache_hit is False
        assert cached_db.result_cache.stats()["invalidated"] == 1

    def test_invalidated_answer_is_recomputed_not_resurrected(self, cached_db):
        index = cached_db.build_index("sif")
        q = make_query()
        run(cached_db, index, q)
        cached_db.insert_object(
            NetworkPosition(0, 10.0), {"pizza"}, indexes=(index,)
        )
        refreshed = run(cached_db, index, q)
        assert refreshed.stats.result_cache_hit is False
        # The refreshed answer is re-cached and valid again.
        assert run(cached_db, index, q).stats.result_cache_hit is True


class TestConstruction:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)

    def test_use_result_cache_installs_and_uninstalls(self, cached_db):
        assert cached_db.result_cache is not None
        assert cached_db.result_cache.max_entries == 8
        cached_db.result_cache = None
        index = cached_db.build_index("sif")
        q = make_query()
        run(cached_db, index, q)
        assert run(cached_db, index, q).stats.result_cache_hit is False


class TestPutWhenTheQueryPointIsGone:
    """``put`` places the query on the network as it is *now*."""

    def _answer(self, db):
        cache, db.result_cache = db.result_cache, None
        index = db.build_index("sif")
        q = make_query()
        return cache, q, run(db, index, q)

    def test_offset_past_a_shrunken_edge_is_skipped(self, cached_db):
        cache, _q, result = self._answer(cached_db)
        weight = cached_db.network.edge(0).weight
        beyond = DiversifiedSKQuery.create(
            NetworkPosition(0, weight * 3.0), ["pizza"], 500.0, 2, 0.8
        )
        cache.put(cached_db, "SIF", beyond, "seq", result)
        assert len(cache) == 0

    def test_any_other_error_propagates(self, cached_db, monkeypatch):
        cache, q, result = self._answer(cached_db)

        def broken(position):
            raise RuntimeError("not a GraphError")

        monkeypatch.setattr(cached_db.network, "position_point", broken)
        with pytest.raises(RuntimeError, match="not a GraphError"):
            cache.put(cached_db, "SIF", q, "seq", result)
        assert len(cache) == 0
