"""Distance-layer dynamics: self-loop seeding, backend counter fidelity
and cutoff clamping."""

import math
from types import SimpleNamespace

import pytest

from repro.datasets.synthetic import random_planar_network
from repro.errors import GraphError
from repro.network.distance import PairwiseDistanceComputer, seed_distances
from repro.network.graph import NetworkPosition, RoadNetwork
from tests.reference import validate_network


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
        validate_network(network)
        # add_edge and Edge both reject loops, so corrupt the store the
        # only way a loop can appear: direct injection.
        network._edges[99] = SimpleNamespace(edge_id=99, n1=0, n2=0, weight=1.0)
        with pytest.raises(GraphError, match="self-loop"):
            validate_network(network)

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

    def position_distance(self, a, b, cutoff=math.inf):
        self.calls += 1
        return self.answer

    def position_matrix(self, positions, cutoff=math.inf):
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
