"""Tests for the bounded LRU :class:`DistanceCache` and its use by
:class:`PairwiseDistanceComputer` (symmetric lookups, cutoff keying,
sharing across computers)."""

import math

import pytest

from repro.network.distance import (
    DistanceCache,
    PairwiseDistanceComputer,
    network_distance,
    single_source_distances,
)
from repro.network.graph import NetworkPosition

INF = math.inf


class TestDistanceCacheUnit:
    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            DistanceCache(max_entries=0)
        with pytest.raises(ValueError):
            DistanceCache(max_entries=-5)

    def test_default_is_unbounded(self):
        assert DistanceCache().max_entries is None

    def test_multi_key_probe_counts_one_miss(self):
        cache = DistanceCache()
        assert cache.get((0, 0.0, INF), (1, 0.0, INF)) is None
        assert (cache.hits, cache.misses) == (0, 1)

    def test_hit_returns_matching_key_and_map(self):
        cache = DistanceCache()
        cache.put((3, 1.0, INF), {7: 0.5})
        found = cache.get((9, 9.0, INF), (3, 1.0, INF))
        assert found == ((3, 1.0, INF), {7: 0.5})
        assert (cache.hits, cache.misses) == (1, 0)

    def test_replacement_updates_entry_count(self):
        cache = DistanceCache(max_entries=10)
        key = (0, 0.0, INF)
        cache.put(key, {1: 1.0, 2: 2.0, 3: 3.0})
        assert cache.entries == 3
        cache.put(key, {1: 1.0})
        assert cache.entries == 1
        assert len(cache) == 1

    def test_lru_eviction_bounded_by_entries(self):
        cache = DistanceCache(max_entries=5)
        k1, k2, k3 = (1, 0.0, INF), (2, 0.0, INF), (3, 0.0, INF)
        two = {10: 0.0, 11: 1.0}
        cache.put(k1, dict(two))
        cache.put(k2, dict(two))
        cache.get(k1)            # k1 becomes most recently used
        cache.put(k3, dict(two))  # 6 entries > 5: k2 is the LRU victim
        assert cache.get(k2) is None
        assert cache.get(k1) is not None
        assert cache.get(k3) is not None
        assert cache.evictions == 1
        assert cache.entries <= 5

    def test_oversized_map_kept_until_next_put(self):
        cache = DistanceCache(max_entries=2)
        big = (1, 0.0, INF)
        cache.put(big, {i: 0.0 for i in range(10)})
        # The just-inserted map always stays, even over budget.
        assert len(cache) == 1 and cache.entries == 10
        cache.put((2, 0.0, INF), {0: 0.0})
        assert cache.get(big) is None
        assert cache.entries == 1

    def test_a_row_counts_one_entry_per_network_node(self, paper_network):
        """The C path caches dense rows: N cells however short the
        cutoff, so the budget holds ``max_entries // N`` of them."""
        n = paper_network.num_nodes
        cache = DistanceCache(max_entries=3 * n + 2)
        comp = PairwiseDistanceComputer(
            paper_network, paper_network, cutoff=1.0, cache=cache
        )
        sources = [NetworkPosition(e, 0.5) for e in range(5)]
        comp._run_dijkstras(sources[:3])
        assert len(cache) == 3 and cache.entries == 3 * n
        assert comp.cache_evictions == 0
        # Under this cutoff a row has one or two finite cells; as dicts
        # all five maps would fit several times over.
        assert all(
            len(single_source_distances(
                paper_network, paper_network, s, cutoff=1.0
            )) <= 2
            for s in sources
        )
        comp._run_dijkstras(sources[3:])  # 5 rows > budget: 2 LRU rows go
        assert len(cache) == 3 and cache.entries == 3 * n
        assert cache.evictions == comp.cache_evictions == 2
        assert cache.get(comp._key(sources[0])) is None
        assert cache.get(comp._key(sources[1])) is None
        assert cache.get(comp._key(sources[4])) is not None
        # A dict map beside them still counts its pairs.
        cache.put((9, 0.0, INF, False), {1: 1.0, 2: 2.0})
        assert cache.entries == 3 * n + 2 and cache.evictions == 2

    def test_clear_drops_maps_keeps_counters(self):
        cache = DistanceCache()
        cache.put((1, 0.0, INF), {0: 0.0})
        cache.get((1, 0.0, INF))
        cache.get((9, 0.0, INF))
        cache.clear()
        assert len(cache) == 0 and cache.entries == 0
        assert cache.counters_snapshot() == (1, 1, 0)

    def test_stats_is_jsonable_summary(self):
        import json

        cache = DistanceCache(max_entries=100)
        cache.put((1, 0.0, INF), {0: 0.0})
        stats = cache.stats()
        assert {"maps", "entries", "max_entries", "hits", "misses",
                "evictions"} <= set(stats)
        json.dumps(stats)


class TestSymmetricLookup:
    """Satellite fix: ``distance`` probes both endpoints' cached maps."""

    def test_reverse_pair_keeps_dijkstra_runs_flat(self, paper_network):
        comp = PairwiseDistanceComputer(paper_network, paper_network)
        a = NetworkPosition(0, 2.0)
        b = NetworkPosition(5, 1.0)
        d_ab = comp.distance(a, b)
        assert comp.dijkstra_runs == 1
        d_ba = comp.distance(b, a)
        # Distances are symmetric: b->a is answered from a's cached map
        # instead of running a second Dijkstra from b.
        assert comp.dijkstra_runs == 1
        assert d_ba == pytest.approx(d_ab)
        assert comp.cache.hits >= 1

    def test_symmetric_answer_matches_oracle(self, paper_network):
        comp = PairwiseDistanceComputer(paper_network, paper_network)
        a = NetworkPosition(1, 3.0)
        b = NetworkPosition(7, 2.0)
        comp.distance(a, b)
        assert comp.distance(b, a) == pytest.approx(
            network_distance(paper_network, paper_network, b, a)
        )


class TestCutoffKeying:
    def test_truncated_maps_never_answer_larger_cutoffs(self, line_network):
        cache = DistanceCache(max_entries=100_000)
        near = PairwiseDistanceComputer(
            line_network, line_network, cutoff=50, cache=cache
        )
        far = PairwiseDistanceComputer(line_network, line_network, cache=cache)
        a = NetworkPosition(0, 10.0)
        b = NetworkPosition(1, 10.0)
        # 90 to n1 plus 10 into edge 1 = 100, beyond the small cutoff.
        assert near.distance(a, b) == INF
        # The unbounded computer must not reuse near's truncated map
        # (cache keys embed the cutoff): it runs its own Dijkstra and
        # finds the true distance.
        assert far.distance(a, b) == pytest.approx(100.0)
        assert far.dijkstra_runs == 1


class TestSharedCache:
    def test_private_cache_is_unbounded(self, paper_network):
        comp = PairwiseDistanceComputer(paper_network, paper_network)
        assert comp.cache.max_entries is None

    def test_second_computer_rides_the_first_ones_maps(self, paper_network):
        cache = DistanceCache(max_entries=100_000)
        c1 = PairwiseDistanceComputer(paper_network, paper_network, cache=cache)
        c2 = PairwiseDistanceComputer(paper_network, paper_network, cache=cache)
        a = NetworkPosition(0, 2.0)
        b = NetworkPosition(5, 1.0)
        d1 = c1.distance(a, b)
        d2 = c2.distance(a, b)
        assert d1 == pytest.approx(d2)
        assert c1.dijkstra_runs == 1
        assert c2.dijkstra_runs == 0
        assert cache.hits == 1
