"""The node maps a :class:`PairwiseDistanceComputer` keeps for its query:
symmetric lookups, one computer per cutoff."""

import math

import pytest

from repro.network.distance import PairwiseDistanceComputer
from repro.network.graph import NetworkPosition
from tests.reference import network_distance

INF = math.inf


class TestSymmetricLookup:
    """``distance`` probes both endpoints' kept maps: one lookup, one
    hit or one miss."""

    def test_reverse_pair_keeps_dijkstra_runs_flat(self, paper_network):
        comp = PairwiseDistanceComputer(paper_network, paper_network)
        a = NetworkPosition(0, 2.0)
        b = NetworkPosition(5, 1.0)
        d_ab = comp.distance(a, b)
        assert comp.dijkstra_runs == 1
        d_ba = comp.distance(b, a)
        # Distances are symmetric: b->a is answered from a's kept map
        # instead of running a second Dijkstra from b.
        assert comp.dijkstra_runs == 1
        assert d_ba == pytest.approx(d_ab)
        assert (comp.cache_hits, comp.cache_misses) == (1, 1)

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
        near = PairwiseDistanceComputer(line_network, line_network, cutoff=50)
        far = PairwiseDistanceComputer(line_network, line_network)
        a = NetworkPosition(0, 10.0)
        b = NetworkPosition(1, 10.0)
        # 90 to n1 plus 10 into edge 1 = 100, beyond the small cutoff.
        assert near.distance(a, b) == INF
        # The unbounded computer never sees near's truncated map (a
        # computer keeps only its own): it runs its own Dijkstra and
        # finds the true distance.
        assert far.distance(a, b) == pytest.approx(100.0)
        assert far.dijkstra_runs == 1
