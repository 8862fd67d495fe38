"""Distance-layer dynamics: self-loop seeding, backend counter fidelity,
cutoff clamping, and the epoch-gated shared cache under concurrency."""

import math
import threading
from types import SimpleNamespace

import pytest

from repro.datasets.synthetic import random_planar_network
from repro.errors import GraphError
from repro.network.distance import (
    DistanceCache,
    PairwiseDistanceComputer,
    seed_distances,
)
from repro.network.graph import NetworkPosition, RoadNetwork


class TestSelfLoopSeeding:
    def test_seed_distances_takes_min_on_self_loop(self):
        """On a loop edge both directions reach the same node; the seed
        must be the cheaper way around, not whichever dict write landed
        last."""
        loop_edge = SimpleNamespace(edge_id=0, n1=4, n2=4, weight=10.0)
        network = SimpleNamespace(edge=lambda eid: loop_edge)
        near = seed_distances(network, NetworkPosition(0, 2.0))
        assert near == {4: 2.0}
        far = seed_distances(network, NetworkPosition(0, 8.0))
        assert far == {4: 2.0}
        mid = seed_distances(network, NetworkPosition(0, 5.0))
        assert mid == {4: 5.0}

    def test_validate_rejects_injected_self_loop(self):
        network = RoadNetwork()
        network.add_node(0, 0.0, 0.0)
        network.add_node(1, 1.0, 0.0)
        network.add_edge(0, 1)
        network.validate()
        # add_edge and Edge both reject loops, so corrupt the store the
        # only way a loop can appear: direct injection.
        network._edges[99] = SimpleNamespace(edge_id=99, n1=0, n2=0, weight=1.0)
        with pytest.raises(GraphError, match="self-loop"):
            network.validate()

    def test_add_edge_rejects_self_loop(self):
        network = RoadNetwork()
        network.add_node(0, 0.0, 0.0)
        with pytest.raises(GraphError):
            network.add_edge(0, 0)


class _FakeBackend:
    """A DistanceBackend double returning a fixed answer."""

    name = "fake"

    def __init__(self, answer: float) -> None:
        self.answer = answer
        self.calls = 0

    def position_distance(self, a, b, cutoff=math.inf, counters=None):
        self.calls += 1
        return self.answer

    def position_matrix(self, positions, cutoff=math.inf, counters=None):
        n = len(positions)
        return {
            (i, j): self.answer for i in range(n) for j in range(i + 1, n)
        }


class TestBackendCounterFidelity:
    def _positions(self):
        network = random_planar_network(30, seed=2)
        edges = list(network.edges())
        a = NetworkPosition(edges[0].edge_id, 0.1 * edges[0].weight)
        b = NetworkPosition(edges[1].edge_id, 0.2 * edges[1].weight)
        return network, a, b

    def test_point_queries_without_prefetch_charge_no_miss(self):
        """A backend point query with no prefetched pair cache never
        probed a cache — charging a miss deflated the hit-rate SLO."""
        network, a, b = self._positions()
        computer = PairwiseDistanceComputer(
            network, network, cutoff=100.0, backend=_FakeBackend(1.0)
        )
        for _ in range(5):
            computer.distance(a, b)
        assert computer.cache_misses == 0
        assert computer.cache_hits == 0

    def test_prefetched_pairs_count_hits_and_misses(self):
        network, a, b = self._positions()
        backend = _FakeBackend(1.0)
        computer = PairwiseDistanceComputer(
            network, network, cutoff=100.0, backend=backend
        )
        assert computer.prefetch([a, b]) == 1
        computer.distance(a, b)
        assert computer.cache_hits == 1
        # A pair outside the prefetched set probes the (non-empty)
        # pair cache and charges a true miss.
        edges = list(network.edges())
        c = NetworkPosition(edges[2].edge_id, 0.3 * edges[2].weight)
        computer.distance(a, c)
        assert computer.cache_misses == 1

    def test_backend_distance_clamped_to_cutoff(self):
        """The backend path honours the same inf-beyond-cutoff contract
        as the Dijkstra path."""
        network, a, b = self._positions()
        computer = PairwiseDistanceComputer(
            network, network, cutoff=5.0, backend=_FakeBackend(7.5)
        )
        assert computer.distance(a, b) == math.inf
        within = PairwiseDistanceComputer(
            network, network, cutoff=5.0, backend=_FakeBackend(4.0)
        )
        assert within.distance(a, b) == pytest.approx(4.0)


class TestEpochGating:
    def test_stale_put_rejected_and_counted(self):
        cache = DistanceCache(max_entries=100)
        assert cache.invalidate(3)
        assert cache.put((0, 0.0, 1.0), {1: 1.0}, epoch=2) == 0
        assert len(cache) == 0
        assert cache.stats()["stale_puts"] == 1
        # A writer at or past the cache epoch lands normally.
        cache.put((0, 0.0, 1.0), {1: 1.0}, epoch=3)
        assert len(cache) == 1

    def test_old_epoch_reader_misses(self):
        cache = DistanceCache(max_entries=100)
        cache.put((0, 0.0, 1.0), {1: 1.0}, epoch=0)
        assert cache.get((0, 0.0, 1.0), epoch=0) is not None
        cache.invalidate(5)
        cache.put((0, 0.0, 1.0), {1: 2.0}, epoch=5)
        assert cache.get((0, 0.0, 1.0), epoch=4) is None
        found = cache.get((0, 0.0, 1.0), epoch=5)
        assert found is not None and found[1] == {1: 2.0}

    def test_invalidate_is_monotonic(self):
        cache = DistanceCache()
        assert cache.invalidate(2)
        assert not cache.invalidate(2)
        assert not cache.invalidate(1)
        assert cache.stats()["invalidations"] == 1
        assert cache.epoch == 2

    def test_batched_matrix_is_gated_like_the_per_pair_path(self):
        """``pairwise_matrix`` on the in-memory network reads and writes
        the shared cache through the same epoch gate: a query pinned
        before an invalidation neither reads the newer rows nor leaves
        its own behind."""
        network = random_planar_network(30, seed=2)
        edges = list(network.edges())
        positions = [
            NetworkPosition(e.edge_id, 0.25 * e.weight) for e in edges[:4]
        ]
        cache = DistanceCache(max_entries=10_000)
        cache.invalidate(5)
        current = PairwiseDistanceComputer(
            network, network, cutoff=500.0, cache=cache, epoch=5
        )
        want = current.pairwise_matrix(positions)
        assert len(cache) == current.dijkstra_runs == 3
        stale = PairwiseDistanceComputer(
            network, network, cutoff=500.0, cache=cache, epoch=4
        )
        got = stale.pairwise_matrix(positions)
        assert (got == want).all()
        assert stale.dijkstra_runs == 3          # read nothing cached
        assert cache.stats()["stale_puts"] == 3  # and cached nothing
        warm = PairwiseDistanceComputer(
            network, network, cutoff=500.0, cache=cache, epoch=5
        )
        assert (warm.pairwise_matrix(positions) == want).all()
        assert warm.dijkstra_runs == 0

    def test_concurrent_invalidation_never_serves_stale_maps(self):
        """Readers, writers and an invalidator race; no reader may ever
        observe a map written before the last invalidation it is ahead
        of.  Maps are tagged with their writer's epoch under sentinel
        key -1 so a stale serve is directly detectable."""
        cache = DistanceCache(max_entries=10_000)
        stop = threading.Event()
        errors = []
        #: Highest epoch whose invalidate() has *returned*; any reader
        #: pinned at or above it must never see an older-tagged map.
        completed = [0]

        def invalidator():
            for epoch in range(1, 60):
                cache.invalidate(epoch)
                completed[0] = epoch
            stop.set()

        def worker(worker_id):
            key = (worker_id, 0.0, 1.0)
            while not stop.is_set():
                epoch = cache.epoch
                cache.put(key, {-1: float(epoch)}, epoch=epoch)
                floor = completed[0]
                found = cache.get(key, epoch=floor)
                if found is not None and found[1][-1] < floor:
                    errors.append(
                        (worker_id, floor, found[1][-1])
                    )  # pragma: no cover — the failure being tested for

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        inv = threading.Thread(target=invalidator)
        for t in threads:
            t.start()
        inv.start()
        inv.join()
        for t in threads:
            t.join()
        assert errors == []
        stats = cache.stats()
        assert stats["invalidations"] == 59
        assert stats["epoch"] == 59


class TestEpochGatingEndToEnd:
    def test_execute_many_races_invalidations(self, tiny_db):
        """Queries on 4 workers race pure cache invalidations (the
        network itself is untouched, so every answer stays correct);
        counters stay consistent and no stale-epoch map survives."""
        from repro.engine.plan import plan_diversified
        from repro.workloads.queries import (
            WorkloadConfig,
            generate_diversified_queries,
        )

        db = tiny_db
        cache = db.use_shared_distance_cache(max_entries=100_000)
        index = db.build_index("sif", file_prefix="epoch-race-sif")
        try:
            queries = generate_diversified_queries(
                db,
                WorkloadConfig(
                    num_queries=24, num_keywords=2, k=4, seed=77
                ),
            )
            plans = [
                plan_diversified(db, index, q, method="seq") for q in queries
            ]

            stop = threading.Event()

            def invalidate_loop():
                epoch = db.data_version
                while not stop.is_set():
                    epoch += 1
                    cache.invalidate(epoch)

            inv = threading.Thread(target=invalidate_loop)
            inv.start()
            try:
                results = db.engine.execute_many(plans, workers=4)
            finally:
                stop.set()
                inv.join()
            assert len(results) == len(plans)
            stats = cache.stats()
            # Counter consistency: every lookup was a hit or a miss.
            assert stats["hits"] + stats["misses"] > 0
            assert stats["invalidations"] > 0
            # The serial re-run returns identical answers: invalidation
            # is a pure cache event, never a correctness event.
            serial = [db.engine.execute(p) for p in plans]
            for got, want in zip(results, serial):
                assert got.object_ids() == want.object_ids()
        finally:
            db.distance_cache = None
