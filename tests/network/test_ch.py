"""Contraction-Hierarchies oracle tests.

The load-bearing property: CH answers are *identical* to the bounded-
Dijkstra backend — exact distances, the same-edge rule, and the cutoff
→ inf contract — on every input, including randomly generated connected
road networks.
"""

import math
import random

import networkx as nx
import pytest

from repro.datasets.synthetic import grid_network, random_planar_network
from repro.errors import GraphError
from repro.network.ch import ContractionHierarchy
from repro.network.distance import PairwiseDistanceComputer
from repro.network.graph import NetworkPosition, RoadNetwork
from tests.reference import network_distance


def to_networkx(network):
    g = nx.Graph()
    for edge in network.edges():
        g.add_edge(edge.n1, edge.n2, weight=edge.weight)
    return g


def random_positions(network, rng, count):
    edges = list(network.edges())
    out = []
    for _ in range(count):
        edge = rng.choice(edges)
        out.append(NetworkPosition(edge.edge_id, rng.random() * edge.weight))
    return out


class TestConstruction:
    def test_rank_is_a_permutation(self):
        network = random_planar_network(60, seed=3)
        ch = ContractionHierarchy(network)
        assert sorted(ch.rank.values()) == list(range(network.num_nodes))

    def test_upward_edges_point_upward(self):
        network = random_planar_network(60, seed=3)
        ch = ContractionHierarchy(network)
        for node, edges in ch._up.items():
            for other, weight in edges:
                assert ch.rank[other] > ch.rank[node]
                assert weight > 0

    def test_shortcuts_on_a_path_graph_are_zero_or_cheap(self, line_network):
        # A path graph never *needs* shortcuts: contracting any interior
        # node leaves its two neighbours connected through... the
        # shortcut.  Witness searches can't avoid those, but a line of 5
        # nodes stays tiny.
        ch = ContractionHierarchy(line_network)
        assert ch.num_nodes == 5
        assert ch.upward_edges >= 4  # at least the original edges

    def test_empty_network_rejected(self):
        with pytest.raises(GraphError):
            ContractionHierarchy(RoadNetwork())

    def test_bad_witness_budget_rejected(self, line_network):
        with pytest.raises(GraphError):
            ContractionHierarchy(line_network, max_witness_settled=0)

    def test_single_node_network(self):
        network = RoadNetwork()
        network.add_node(0, 0.0, 0.0)
        ch = ContractionHierarchy(network)
        assert ch.node_distance(0, 0) == 0.0


class TestNodeDistances:
    @pytest.mark.parametrize("seed", [0, 1, 2, 7, 19])
    def test_all_pairs_match_networkx_on_random_networks(self, seed):
        network = random_planar_network(50, seed=seed)
        ch = ContractionHierarchy(network)
        g = to_networkx(network)
        expected = dict(nx.all_pairs_dijkstra_path_length(g))
        nodes = [n.node_id for n in network.nodes()]
        for a in nodes:
            for b in nodes:
                assert ch.node_distance(a, b) == pytest.approx(
                    expected[a][b]
                ), (seed, a, b)

    def test_all_pairs_on_a_grid(self):
        network = grid_network(5, 5, seed=2)
        ch = ContractionHierarchy(network)
        g = to_networkx(network)
        expected = dict(nx.all_pairs_dijkstra_path_length(g))
        nodes = [n.node_id for n in network.nodes()]
        for a in nodes:
            for b in nodes:
                assert ch.node_distance(a, b) == pytest.approx(expected[a][b])

    def test_tight_witness_budget_stays_exact(self):
        # An exhausted witness budget adds redundant shortcuts, never
        # wrong ones — answers must not change.
        network = random_planar_network(50, seed=13)
        generous = ContractionHierarchy(network)
        stingy = ContractionHierarchy(network, max_witness_settled=1)
        assert stingy.shortcuts_added >= generous.shortcuts_added
        nodes = [n.node_id for n in network.nodes()]
        rng = random.Random(13)
        for _ in range(300):
            a, b = rng.choice(nodes), rng.choice(nodes)
            assert stingy.node_distance(a, b) == pytest.approx(
                generous.node_distance(a, b)
            )

    def test_cutoff_contract(self):
        network = random_planar_network(50, seed=5)
        ch = ContractionHierarchy(network)
        nodes = [n.node_id for n in network.nodes()]
        rng = random.Random(5)
        for _ in range(200):
            a, b = rng.choice(nodes), rng.choice(nodes)
            exact = ch.node_distance(a, b)
            cutoff = rng.random() * 2.0 * max(exact, 1e-9)
            bounded = ch.node_distance(a, b, cutoff=cutoff)
            if exact <= cutoff:
                assert bounded == pytest.approx(exact)
            else:
                assert bounded == math.inf


class TestPositionDistances:
    @pytest.mark.parametrize("seed", [0, 4, 11, 23])
    def test_sampled_positions_match_dijkstra_backend(self, seed):
        network = random_planar_network(80, seed=seed)
        ch = ContractionHierarchy(network)
        rng = random.Random(seed)
        positions = random_positions(network, rng, 40)
        for a in positions:
            for b in positions:
                assert ch.position_distance(a, b) == pytest.approx(
                    network_distance(network, network, a, b)
                ), (seed, a, b)

    def test_same_edge_short_circuit(self):
        network = random_planar_network(40, seed=8)
        edge = next(iter(network.edges()))
        ch = ContractionHierarchy(network)
        a = NetworkPosition(edge.edge_id, 0.25 * edge.weight)
        b = NetworkPosition(edge.edge_id, 0.75 * edge.weight)
        # The paper's fiat rule: same edge → |offset difference|, even
        # when a shorter around-the-block path exists, and regardless of
        # any cutoff — exactly like the Dijkstra backend.
        assert ch.position_distance(a, b) == pytest.approx(0.5 * edge.weight)
        assert ch.position_distance(a, b, cutoff=1e-12) == pytest.approx(
            0.5 * edge.weight
        )
        assert ch.position_distance(a, b) == pytest.approx(
            network_distance(network, network, a, b)
        )

    def test_cutoff_matches_dijkstra_backend(self):
        network = random_planar_network(60, seed=21)
        ch = ContractionHierarchy(network)
        rng = random.Random(21)
        positions = random_positions(network, rng, 30)
        for _ in range(200):
            a, b = rng.choice(positions), rng.choice(positions)
            cutoff = rng.random() * 3.0
            got = ch.position_distance(a, b, cutoff=cutoff)
            want = network_distance(network, network, a, b, cutoff=cutoff)
            if want == math.inf:
                assert got == math.inf
            else:
                assert got == pytest.approx(want)


class TestManyToMany:
    def test_matrix_equals_point_queries(self):
        network = random_planar_network(70, seed=15)
        ch = ContractionHierarchy(network)
        rng = random.Random(15)
        positions = random_positions(network, rng, 30)
        n = len(positions)
        for cutoff in (math.inf, 1.5):
            matrix = ch.position_matrix(positions, cutoff=cutoff)
            assert set(matrix) == {
                (i, j) for i in range(n) for j in range(i + 1, n)
            }
            for (i, j), d in matrix.items():
                assert d == ch.position_distance(
                    positions[i], positions[j], cutoff=cutoff
                ), (cutoff, i, j)

    def test_matrix_honours_cutoff(self):
        network = random_planar_network(70, seed=16)
        ch = ContractionHierarchy(network)
        rng = random.Random(16)
        positions = random_positions(network, rng, 20)
        cutoff = 1.5
        matrix = ch.position_matrix(positions, cutoff=cutoff)
        for (i, j), d in matrix.items():
            want = ch.position_distance(
                positions[i], positions[j], cutoff=cutoff
            )
            if want == math.inf:
                assert d == math.inf
            else:
                assert d == pytest.approx(want)

    def test_matrix_same_edge_pairs(self):
        network = random_planar_network(40, seed=18)
        edge = next(iter(network.edges()))
        ch = ContractionHierarchy(network)
        positions = [
            NetworkPosition(edge.edge_id, 0.1 * edge.weight),
            NetworkPosition(edge.edge_id, 0.9 * edge.weight),
        ]
        matrix = ch.position_matrix(positions)
        assert matrix[(0, 1)] == pytest.approx(0.8 * edge.weight)

    def test_trivial_inputs(self):
        network = random_planar_network(40, seed=19)
        ch = ContractionHierarchy(network)
        assert ch.position_matrix([]) == {}
        rng = random.Random(19)
        (a,) = random_positions(network, rng, 1)
        assert ch.position_matrix([a]) == {}


class TestComputerIntegration:
    def test_backend_computer_matches_dijkstra_computer(self):
        network = random_planar_network(60, seed=29)
        ch = ContractionHierarchy(network)
        rng = random.Random(29)
        positions = random_positions(network, rng, 20)
        plain = PairwiseDistanceComputer(network, network)
        backed = PairwiseDistanceComputer(network, network, backend=ch)
        assert backed.backend_name == "ch"
        assert plain.backend_name == "csgraph"
        want = plain.pairwise(positions)
        got = backed.pairwise(positions)
        assert set(got) == set(want)
        for key, d in want.items():
            if d == math.inf:
                assert got[key] == math.inf
            else:
                assert got[key] == pytest.approx(d)
        # The matrix was served by one prefetch: the per-pair loop
        # then hits the computer's pair cache (same-edge pairs
        # short-circuit before the cache and don't count).
        cross_edge = sum(
            1 for (i, j) in want
            if positions[i].edge_id != positions[j].edge_id
        )
        assert (backed.cache_hits, backed.cache_misses) == (cross_edge, 0)
        assert backed.dijkstra_runs == backed.dijkstra_seconds == 0

    @pytest.mark.parametrize("seed", [7, 13, 37])
    def test_bounded_computers_agree_on_inf_contract(self, seed):
        """With a finite cutoff, both backends clamp identically.

        The backend path historically returned the raw oracle answer;
        now both paths return ``inf`` exactly when the distance exceeds
        the computer's cutoff, so SEQ/COM see one contract regardless
        of ``--distance-backend``.
        """
        network = random_planar_network(60, seed=seed)
        ch = ContractionHierarchy(network)
        rng = random.Random(seed)
        positions = random_positions(network, rng, 20)
        for cutoff in (0.5, 1.5, 4.0):
            plain = PairwiseDistanceComputer(network, network, cutoff=cutoff)
            backed = PairwiseDistanceComputer(
                network, network, cutoff=cutoff, backend=ch
            )
            for a in positions:
                for b in positions:
                    want = plain.distance(a, b)
                    got = backed.distance(a, b)
                    if want == math.inf:
                        assert got == math.inf, (seed, cutoff, a, b)
                    else:
                        assert got == pytest.approx(want), (seed, cutoff, a, b)
                    if a.edge_id != b.edge_id:
                        # Same-edge pairs bypass the cutoff by the
                        # paper's fiat rule; every other answer honours
                        # the inf-beyond-cutoff contract.
                        assert got <= cutoff or got == math.inf

    def test_prefetch_noop_without_backend(self):
        network = random_planar_network(40, seed=31)
        rng = random.Random(31)
        positions = random_positions(network, rng, 5)
        plain = PairwiseDistanceComputer(network, network)
        assert plain.prefetch(positions) == 0
