"""Hub-label oracle tests.

Same acceptance bar as the CH suite it mirrors: hub-label answers are
*identical* to the bounded-Dijkstra backend and to the CH oracle the
labels were derived from — exact distances, the same-edge fiat rule,
the cutoff → inf contract — on every input, including randomly
generated connected road networks.  The pairwise matrix is one point
query per pair, so it must equal the point queries exactly, cell for
cell.
"""

import math
import random

import networkx as nx
import pytest

from repro.datasets.synthetic import grid_network, random_planar_network
from repro.network import ch as ch_module
from repro.network.ch import ContractionHierarchy
from repro.network.distance import PairwiseDistanceComputer
from repro.network.graph import NetworkPosition
from repro.network.hub_labels import HubLabelBackend
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
    def test_labels_cover_every_node(self):
        network = random_planar_network(60, seed=3)
        hub = HubLabelBackend(network)
        assert hub.name == "hub"
        assert len(hub._labels) == 60
        # Every node is in its own label at cost 0 (the upward search
        # settles its seed), and a label holds each hub once, sorted.
        for node, (hubs, dists) in hub._labels.items():
            assert dists[list(hubs).index(node)] == 0.0
            assert list(hubs) == sorted(set(hubs))
        assert hub.label_entries == sum(
            len(hubs) for hubs, _ in hub._labels.values()
        )

    def test_reuses_supplied_ch(self):
        network = random_planar_network(40, seed=9)
        ch = ContractionHierarchy(network)
        hub = HubLabelBackend(network, ch=ch)
        assert hub.ch is ch


class TestNodeDistances:
    @pytest.mark.parametrize("seed", [0, 1, 2, 7, 19])
    def test_all_pairs_match_networkx_on_random_networks(self, seed):
        network = random_planar_network(50, seed=seed)
        hub = HubLabelBackend(network)
        g = to_networkx(network)
        expected = dict(nx.all_pairs_dijkstra_path_length(g))
        nodes = [n.node_id for n in network.nodes()]
        for a in nodes:
            for b in nodes:
                assert hub.node_distance(a, b) == pytest.approx(
                    expected[a][b]
                ), (seed, a, b)

    def test_all_pairs_on_a_grid(self):
        network = grid_network(5, 5, seed=2)
        hub = HubLabelBackend(network)
        g = to_networkx(network)
        expected = dict(nx.all_pairs_dijkstra_path_length(g))
        nodes = [n.node_id for n in network.nodes()]
        for a in nodes:
            for b in nodes:
                assert hub.node_distance(a, b) == pytest.approx(
                    expected[a][b]
                )

    def test_starved_witness_budget_stays_exact(self, monkeypatch):
        # A CH built with an exhausted witness budget has redundant
        # shortcuts; the labels built on it are larger but still exact.
        network = random_planar_network(50, seed=13)
        generous = HubLabelBackend(network)
        monkeypatch.setattr(ch_module, "MAX_WITNESS_SETTLED", 1)
        stingy = HubLabelBackend(network)
        assert stingy.label_entries >= generous.label_entries
        nodes = [n.node_id for n in network.nodes()]
        rng = random.Random(13)
        for _ in range(300):
            a, b = rng.choice(nodes), rng.choice(nodes)
            assert stingy.node_distance(a, b) == pytest.approx(
                generous.node_distance(a, b)
            )

    def test_cutoff_contract(self):
        network = random_planar_network(50, seed=5)
        hub = HubLabelBackend(network)
        nodes = [n.node_id for n in network.nodes()]
        rng = random.Random(5)
        for _ in range(200):
            a, b = rng.choice(nodes), rng.choice(nodes)
            exact = hub.node_distance(a, b)
            cutoff = rng.random() * 2.0 * max(exact, 1e-9)
            bounded = hub.node_distance(a, b, cutoff=cutoff)
            if exact <= cutoff:
                assert bounded == pytest.approx(exact)
            else:
                assert bounded == math.inf


class TestPositionDistances:
    @pytest.mark.parametrize("seed", [0, 4, 11, 23])
    def test_sampled_positions_match_dijkstra_backend(self, seed):
        network = random_planar_network(80, seed=seed)
        hub = HubLabelBackend(network)
        rng = random.Random(seed)
        positions = random_positions(network, rng, 40)
        for a in positions:
            for b in positions:
                assert hub.position_distance(a, b) == pytest.approx(
                    network_distance(network, network, a, b)
                ), (seed, a, b)

    @pytest.mark.parametrize("seed", [2, 17])
    def test_equal_to_ch_backend(self, seed):
        network = random_planar_network(70, seed=seed)
        ch = ContractionHierarchy(network)
        hub = HubLabelBackend(network, ch=ch)
        rng = random.Random(seed)
        positions = random_positions(network, rng, 30)
        for a in positions:
            for b in positions:
                assert hub.position_distance(a, b) == pytest.approx(
                    ch.position_distance(a, b)
                ), (seed, a, b)

    def test_same_edge_short_circuit(self):
        network = random_planar_network(40, seed=8)
        edge = next(iter(network.edges()))
        hub = HubLabelBackend(network)
        a = NetworkPosition(edge.edge_id, 0.25 * edge.weight)
        b = NetworkPosition(edge.edge_id, 0.75 * edge.weight)
        # The paper's fiat rule: same edge → |offset difference|, even
        # when a shorter around-the-block path exists, and regardless of
        # any cutoff — exactly like the other backends.
        assert hub.position_distance(a, b) == pytest.approx(
            0.5 * edge.weight
        )
        assert hub.position_distance(a, b, cutoff=1e-12) == pytest.approx(
            0.5 * edge.weight
        )
        assert hub.position_distance(a, b) == pytest.approx(
            network_distance(network, network, a, b)
        )

    def test_cutoff_matches_dijkstra_backend(self):
        network = random_planar_network(60, seed=21)
        hub = HubLabelBackend(network)
        rng = random.Random(21)
        positions = random_positions(network, rng, 30)
        for _ in range(200):
            a, b = rng.choice(positions), rng.choice(positions)
            cutoff = rng.random() * 3.0
            got = hub.position_distance(a, b, cutoff=cutoff)
            want = network_distance(network, network, a, b, cutoff=cutoff)
            if want == math.inf:
                assert got == math.inf
            else:
                assert got == pytest.approx(want)


class TestPositionMatrix:
    def test_matrix_equals_point_queries(self):
        network = random_planar_network(70, seed=15)
        hub = HubLabelBackend(network)
        rng = random.Random(15)
        positions = random_positions(network, rng, 30)
        n = len(positions)
        for cutoff in (math.inf, 1.5):
            matrix = hub.position_matrix(positions, cutoff=cutoff)
            array = PairwiseDistanceComputer(
                network, network, cutoff=cutoff, backend=hub
            ).pairwise_matrix(positions)
            assert set(matrix) == {
                (i, j) for i in range(n) for j in range(i + 1, n)
            }
            for (i, j), d in matrix.items():
                want = hub.position_distance(
                    positions[i], positions[j], cutoff=cutoff
                )
                assert d == want, (cutoff, i, j)
                assert array[i, j] == array[j, i] == want, (cutoff, i, j)
            assert (array.diagonal() == 0.0).all()

    def test_matrix_equals_ch_matrix(self):
        network = random_planar_network(60, seed=25)
        ch = ContractionHierarchy(network)
        hub = HubLabelBackend(network, ch=ch)
        rng = random.Random(25)
        positions = random_positions(network, rng, 25)
        want = ch.position_matrix(positions)
        got = hub.position_matrix(positions)
        assert set(got) == set(want)
        for key, d in want.items():
            assert got[key] == pytest.approx(d), key

    def test_matrix_honours_cutoff(self):
        network = random_planar_network(70, seed=16)
        hub = HubLabelBackend(network)
        rng = random.Random(16)
        positions = random_positions(network, rng, 20)
        cutoff = 1.5
        matrix = hub.position_matrix(positions, cutoff=cutoff)
        for (i, j), d in matrix.items():
            want = hub.position_distance(
                positions[i], positions[j], cutoff=cutoff
            )
            if want == math.inf:
                assert d == math.inf
            else:
                assert d == pytest.approx(want)

    def test_matrix_same_edge_pairs(self):
        network = random_planar_network(40, seed=18)
        edge = next(iter(network.edges()))
        hub = HubLabelBackend(network)
        positions = [
            NetworkPosition(edge.edge_id, 0.1 * edge.weight),
            NetworkPosition(edge.edge_id, 0.9 * edge.weight),
        ]
        matrix = hub.position_matrix(positions)
        assert matrix[(0, 1)] == pytest.approx(0.8 * edge.weight)

    def test_trivial_inputs(self):
        network = random_planar_network(40, seed=19)
        hub = HubLabelBackend(network)
        assert hub.position_matrix([]) == {}
        rng = random.Random(19)
        (a,) = random_positions(network, rng, 1)
        assert hub.position_matrix([a]) == {}


class TestComputerIntegration:
    def test_backend_computer_matches_dijkstra_computer(self):
        network = random_planar_network(60, seed=29)
        hub = HubLabelBackend(network)
        rng = random.Random(29)
        positions = random_positions(network, rng, 20)
        plain = PairwiseDistanceComputer(network, network)
        backed = PairwiseDistanceComputer(network, network, backend=hub)
        assert backed.backend_name == "hub"
        want = plain.pairwise(positions)
        got = backed.pairwise(positions)
        assert set(got) == set(want)
        for key, d in want.items():
            if d == math.inf:
                assert got[key] == math.inf
            else:
                assert got[key] == pytest.approx(d)
        # One prefetch served the matrix; the per-pair loop then hits
        # the computer's pair cache.
        cross_edge = sum(
            1 for (i, j) in want
            if positions[i].edge_id != positions[j].edge_id
        )
        assert (backed.cache_hits, backed.cache_misses) == (cross_edge, 0)
        assert backed.dijkstra_runs == 0

    @pytest.mark.parametrize("seed", [7, 37])
    def test_bounded_computers_agree_on_inf_contract(self, seed):
        network = random_planar_network(60, seed=seed)
        hub = HubLabelBackend(network)
        rng = random.Random(seed)
        positions = random_positions(network, rng, 20)
        for cutoff in (0.5, 1.5, 4.0):
            plain = PairwiseDistanceComputer(network, network, cutoff=cutoff)
            backed = PairwiseDistanceComputer(
                network, network, cutoff=cutoff, backend=hub
            )
            for a in positions:
                for b in positions:
                    want = plain.distance(a, b)
                    got = backed.distance(a, b)
                    if want == math.inf:
                        assert got == math.inf, (seed, cutoff, a, b)
                    else:
                        assert got == pytest.approx(want), (
                            seed, cutoff, a, b,
                        )
