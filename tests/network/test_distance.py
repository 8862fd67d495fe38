"""Network-distance tests, cross-checked against networkx as an oracle."""

import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heapq

from repro.datasets.synthetic import random_planar_network
from repro.network.distance import (
    PairwiseDistanceComputer,
    node_source_distances,
    position_distance_from_node_map,
    seed_distances,
    single_source_distances,
)
from repro.network.graph import NetworkPosition
from tests.reference import network_distance


def to_networkx(network):
    g = nx.Graph()
    for edge in network.edges():
        g.add_edge(edge.n1, edge.n2, weight=edge.weight)
    return g


class TestSeedDistances:
    def test_seeds_on_line(self, line_network):
        pos = NetworkPosition(0, 30.0)
        seeds = seed_distances(line_network, pos)
        edge = line_network.edge(0)
        assert seeds[edge.n1] == pytest.approx(30.0)
        assert seeds[edge.n2] == pytest.approx(70.0)


class TestSingleSource:
    def test_line_distances(self, line_network):
        pos = NetworkPosition(0, 30.0)  # 30 along the first edge
        dist = single_source_distances(line_network, line_network, pos)
        assert dist[0] == pytest.approx(30)
        assert dist[1] == pytest.approx(70)
        assert dist[2] == pytest.approx(170)
        assert dist[4] == pytest.approx(370)

    def test_cutoff_prunes(self, line_network):
        pos = NetworkPosition(0, 30.0)
        dist = single_source_distances(line_network, line_network, pos, cutoff=100)
        assert 2 not in dist
        assert set(dist) == {0, 1}

    def test_matches_networkx(self, paper_network):
        g = to_networkx(paper_network)
        pos = paper_network.node_position(0)
        dist = single_source_distances(paper_network, paper_network, pos)
        expected = nx.single_source_dijkstra_path_length(g, 0)
        for node, d in expected.items():
            assert dist[node] == pytest.approx(d)

    def test_matches_networkx_on_random_network(self):
        network = random_planar_network(120, seed=4)
        g = to_networkx(network)
        pos = network.node_position(17)
        dist = single_source_distances(network, network, pos)
        expected = nx.single_source_dijkstra_path_length(g, 17)
        assert set(dist) == set(expected)
        for node, d in expected.items():
            assert dist[node] == pytest.approx(d)


def _reference_single_source(provider, network, pos, cutoff=math.inf):
    """The pre-optimisation Dijkstra: pushes every relaxation onto the
    heap (no tentative-distance domination check).  The heap-discipline
    tests assert the optimised kernels return *identical* node maps."""
    seeds = {
        node: d for node, d in seed_distances(network, pos).items()
        if d <= cutoff
    }
    dist = {}
    heap = [(d, node) for node, d in seeds.items()]
    heapq.heapify(heap)
    while heap:
        d, node = heapq.heappop(heap)
        if node in dist:
            continue
        dist[node] = d
        for _edge, other, weight in provider.neighbors(node):
            nd = d + weight
            if other not in dist and nd <= cutoff:
                heapq.heappush(heap, (nd, other))
    return dist


class TestHeapDiscipline:
    """The dominated-entry suppression must not change any node map."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("cutoff", [math.inf, 3000.0, 500.0])
    def test_single_source_identical_node_maps(self, seed, cutoff):
        import numpy as np

        network = random_planar_network(100, seed=seed)
        rng = np.random.default_rng(seed)
        edges = list(network.edges())
        for _ in range(10):
            edge = edges[int(rng.integers(len(edges)))]
            pos = NetworkPosition(
                edge.edge_id, float(rng.uniform(0, edge.weight))
            )
            got = single_source_distances(network, network, pos, cutoff=cutoff)
            want = _reference_single_source(network, network, pos, cutoff=cutoff)
            assert got == want  # identical keys AND values, exactly

    def test_node_source_matches_networkx(self):
        network = random_planar_network(90, seed=44)
        g = to_networkx(network)
        for source in (0, 13, 57):
            got = node_source_distances(network, source)
            want = nx.single_source_dijkstra_path_length(g, source)
            assert set(got) == set(want)
            for node, d in want.items():
                assert got[node] == pytest.approx(d)

    def test_node_source_cutoff_and_targets(self, paper_network):
        full = node_source_distances(paper_network, 0)
        bounded = node_source_distances(paper_network, 0, cutoff=15.0)
        assert bounded == {
            node: d for node, d in full.items() if d <= 15.0
        }
        early = node_source_distances(paper_network, 0, targets={1})
        assert early[1] == pytest.approx(full[1])

    def test_node_source_ignore_excludes_node(self, paper_network):
        # Ignoring node 4 severs every path through it — what CH
        # witness searches rely on.
        dist = node_source_distances(paper_network, 1, ignore=4)
        assert 4 not in dist
        assert dist[5] == pytest.approx(21.0)  # 1 -> 2 (12) -> 5 (9)

    def test_node_source_max_settled_budget(self, paper_network):
        dist = node_source_distances(paper_network, 0, max_settled=3)
        assert len(dist) == 3


class TestPointToPoint:
    def test_same_edge_rule(self, line_network):
        # Paper: δ(q, p) = w(q, p) when both lie on the same edge.
        a = NetworkPosition(0, 20.0)
        b = NetworkPosition(0, 90.0)
        assert network_distance(line_network, line_network, a, b) == pytest.approx(70)

    def test_cross_edge(self, line_network):
        a = NetworkPosition(0, 20.0)  # 20 from n0
        b = NetworkPosition(2, 50.0)  # edge n2-n3, 50 from n2
        # 80 to n1, 100 to n2, 50 into edge 2.
        assert network_distance(line_network, line_network, a, b) == pytest.approx(230)

    def test_symmetry(self, paper_network):
        a = NetworkPosition(0, 4.0)
        b = NetworkPosition(6, 3.0)
        d1 = network_distance(paper_network, paper_network, a, b)
        d2 = network_distance(paper_network, paper_network, b, a)
        assert d1 == pytest.approx(d2)

    def test_cutoff_returns_inf(self, line_network):
        a = NetworkPosition(0, 0.0)
        b = NetworkPosition(3, 90.0)
        assert network_distance(line_network, line_network, a, b, cutoff=100) == math.inf

    def test_seed_endpoint_beyond_cutoff(self, paper_network):
        """Regression: a seed end-node farther than the cutoff must be
        filtered, exactly as ``single_source_distances`` does."""
        edge12 = paper_network.edge_between(1, 2)
        a = NetworkPosition(edge12.edge_id, 11.0)  # n1 at 11, n2 at 1
        cutoff = 10.0
        dist = single_source_distances(
            paper_network, paper_network, a, cutoff=cutoff
        )
        assert 1 not in dist  # the far seed endpoint is beyond the cutoff
        assert dist[2] == pytest.approx(1.0)
        # Targets reachable through the near endpoint keep their exact
        # distance, and both code paths agree.
        edge25 = paper_network.edge_between(2, 5)
        b = NetworkPosition(edge25.edge_id, 4.0)
        d = network_distance(paper_network, paper_network, a, b, cutoff=cutoff)
        assert d == pytest.approx(5.0)  # a -> n2 (1) -> 4 into edge (2,5)
        assert d == pytest.approx(
            position_distance_from_node_map(paper_network, dist, b)
        )
        # Targets only reachable through the far seed endpoint are out.
        edge01 = paper_network.edge_between(0, 1)
        c = NetworkPosition(edge01.edge_id, 5.0)
        assert network_distance(
            paper_network, paper_network, a, c, cutoff=cutoff
        ) == math.inf

    def test_hand_checked_paper_network(self, paper_network):
        # q at node 1 (offset 10 on edge 0-1); object 3 into edge (4, 6).
        edge01 = paper_network.edge_between(0, 1)
        q = NetworkPosition(edge01.edge_id, 10.0)  # exactly node 1
        edge46 = paper_network.edge_between(4, 6)
        o = NetworkPosition(edge46.edge_id, 3.0)
        # n1 -> n4 = 5, plus 3 into the edge = 8.
        assert network_distance(
            paper_network, paper_network, q, o
        ) == pytest.approx(8.0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6))
    def test_random_pairs_match_networkx(self, seed):
        import numpy as np

        network = random_planar_network(60, seed=11)
        g = to_networkx(network)
        rng = np.random.default_rng(seed)
        edges = list(network.edges())
        e1, e2 = rng.choice(len(edges), size=2)
        ea, eb = edges[int(e1)], edges[int(e2)]
        a = NetworkPosition(ea.edge_id, float(rng.uniform(0, ea.weight)))
        b = NetworkPosition(eb.edge_id, float(rng.uniform(0, eb.weight)))
        got = network_distance(network, network, a, b)
        if ea.edge_id == eb.edge_id:
            assert got == pytest.approx(abs(a.offset - b.offset))
            return
        best = math.inf
        for na, da in ((ea.n1, a.offset), (ea.n2, ea.weight - a.offset)):
            for nb, db in ((eb.n1, b.offset), (eb.n2, eb.weight - b.offset)):
                best = min(
                    best,
                    da + nx.shortest_path_length(g, na, nb, weight="weight") + db,
                )
        assert got == pytest.approx(best)


class TestEquationOne:
    def test_position_distance_from_node_map(self, line_network):
        q = NetworkPosition(0, 0.0)
        node_map = single_source_distances(line_network, line_network, q)
        target = NetworkPosition(2, 25.0)
        d = position_distance_from_node_map(line_network, node_map, target)
        assert d == pytest.approx(225)

    def test_missing_nodes_gives_inf(self, line_network):
        d = position_distance_from_node_map(
            line_network, {}, NetworkPosition(0, 10.0)
        )
        assert d == math.inf


class TestPairwiseComputer:
    def test_caches_dijkstra_runs(self, paper_network):
        comp = PairwiseDistanceComputer(paper_network, paper_network)
        a = NetworkPosition(0, 2.0)
        b = NetworkPosition(5, 1.0)
        c = NetworkPosition(7, 1.0)
        comp.distance(a, b)
        comp.distance(a, c)
        assert comp.dijkstra_runs == 1  # both reuse the map of a

    def test_symmetry_and_consistency(self, paper_network):
        comp = PairwiseDistanceComputer(paper_network, paper_network)
        a = NetworkPosition(0, 2.0)
        b = NetworkPosition(5, 1.0)
        d_ab = comp.distance(a, b)
        d_ba = comp.distance(b, a)
        assert d_ab == pytest.approx(d_ba)
        assert d_ab == pytest.approx(
            network_distance(paper_network, paper_network, a, b)
        )

    def test_pairwise_matrix(self, paper_network):
        comp = PairwiseDistanceComputer(paper_network, paper_network)
        positions = [
            NetworkPosition(0, 1.0),
            NetworkPosition(3, 2.0),
            NetworkPosition(6, 3.0),
        ]
        matrix = comp.pairwise(positions)
        assert set(matrix) == {(0, 1), (0, 2), (1, 2)}
        for (i, j), d in matrix.items():
            assert d == pytest.approx(
                network_distance(
                    paper_network, paper_network, positions[i], positions[j]
                )
            )

    def test_cutoff_inf(self, line_network):
        comp = PairwiseDistanceComputer(line_network, line_network, cutoff=50)
        a = NetworkPosition(0, 0.0)
        b = NetworkPosition(3, 0.0)
        assert comp.distance(a, b) == math.inf
