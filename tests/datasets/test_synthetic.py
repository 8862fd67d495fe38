"""Tests for the synthetic road-network generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from repro.datasets import synthetic
from repro.datasets.synthetic import (
    EXTENT,
    grid_network,
    nearest_points,
    random_planar_network,
)
from repro.errors import DatasetError
from tests.reference import validate_network


def is_connected(network):
    seen = {0}
    stack = [0]
    while stack:
        node = stack.pop()
        for _e, other, _w in network.neighbors(node):
            if other not in seen:
                seen.add(other)
                stack.append(other)
    return len(seen) == network.num_nodes


class TestGrid:
    def test_counts(self, monkeypatch):
        monkeypatch.setattr(synthetic, "DROP_PROB", 0.0)
        monkeypatch.setattr(synthetic, "JITTER", 0.0)
        n = grid_network(10, 10)
        assert n.num_nodes == 100
        assert n.num_edges == 2 * 10 * 9

    def test_too_small_rejected(self):
        with pytest.raises(DatasetError):
            grid_network(1, 5)

    def test_always_connected(self, monkeypatch):
        monkeypatch.setattr(synthetic, "DROP_PROB", 0.5)
        for seed in range(5):
            n = grid_network(8, 8, seed=seed)
            assert is_connected(n)

    def test_determinism(self):
        a = grid_network(6, 6, seed=3)
        b = grid_network(6, 6, seed=3)
        assert a.num_edges == b.num_edges
        for ea, eb in zip(a.edges(), b.edges()):
            assert (ea.n1, ea.n2) == (eb.n1, eb.n2)
            assert ea.weight == pytest.approx(eb.weight)

    def test_jitter_moves_interior_nodes(self, monkeypatch):
        bumpy = grid_network(5, 5, seed=1)
        monkeypatch.setattr(synthetic, "JITTER", 0.0)
        flat = grid_network(5, 5, seed=1)
        moved = sum(
            1
            for a, b in zip(flat.nodes(), bumpy.nodes())
            if a.point.distance_to(b.point) > 1.0
        )
        assert moved > 0

    def test_coordinates_within_extent(self, monkeypatch):
        monkeypatch.setattr(synthetic, "EXTENT", 5000.0)
        n = grid_network(7, 7, seed=2)
        for node in n.nodes():
            assert -1000 <= node.point.x <= 6000
            assert -1000 <= node.point.y <= 6000

    def test_validates(self):
        validate_network(grid_network(6, 6, seed=4))


class TestPlanar:
    def test_connected(self):
        for seed in range(4):
            n = random_planar_network(150, seed=seed)
            assert is_connected(n)

    def test_too_small_rejected(self):
        with pytest.raises(DatasetError):
            random_planar_network(1)

    def test_density_scales_with_neighbours(self):
        sparse = random_planar_network(200, neighbours=2, seed=1)
        dense = random_planar_network(200, neighbours=6, seed=1)
        assert dense.num_edges > sparse.num_edges

    def test_determinism(self):
        a = random_planar_network(80, seed=9)
        b = random_planar_network(80, seed=9)
        assert a.num_edges == b.num_edges

    def test_no_self_loops_or_duplicates(self):
        n = random_planar_network(120, seed=5)
        seen = set()
        for e in n.edges():
            assert e.n1 != e.n2
            assert (e.n1, e.n2) not in seen
            seen.add((e.n1, e.n2))

    def test_validates(self):
        validate_network(random_planar_network(60, seed=7))


# ----------------------------------------------------------------------
# ``scipy.spatial.cKDTree`` wired these networks until PR 20 and is the
# oracle here (scipy stays a dependency: the default pairwise backend).
# Uniform doubles put no two points at one distance from a third, the
# one case in which neither side defines an order.
# ----------------------------------------------------------------------
def kdtree_planar_edges(num_nodes, neighbours, seed):
    """``[(n1, n2), ...]`` by edge id, wired the way the parent did."""
    points = np.random.default_rng(seed).uniform(0.0, EXTENT, size=(num_nodes, 2))
    _dists, idx = cKDTree(points).query(points, k=min(neighbours + 1, num_nodes))
    edges = []
    for i in range(num_nodes):
        for j in np.atleast_1d(idx[i])[1:]:
            pair = (min(i, int(j)), max(i, int(j)))
            if pair[0] != pair[1] and pair not in edges:
                edges.append(pair)

    component = list(range(num_nodes))  # node -> smallest node it reaches

    def merge(a, b):
        keep, drop = sorted((component[a], component[b]))
        for node, c in enumerate(component):
            if c == drop:
                component[node] = keep

    for a, b in edges:
        merge(a, b)
    bridges = 0
    # Components in order of their first node; the first absorbs the
    # second through their closest pair until one is left.
    while len(set(component)) > 1:
        first, second = sorted(set(component))[:2]
        base = [n for n in range(num_nodes) if component[n] == first]
        other = [n for n in range(num_nodes) if component[n] == second]
        dists, nearest = cKDTree(points[base]).query(points[other], k=1)
        pick = int(np.argmin(dists))
        a, b = other[pick], base[int(nearest[pick])]
        edges.append((min(a, b), max(a, b)))
        merge(a, b)
        bridges += 1
    return edges, bridges


class TestNearestPoints:
    @given(st.integers(2, 600), st.data(), st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_rows_are_the_kdtrees(self, n, data, seed):
        k = data.draw(st.integers(1, n + 2))
        points = np.random.default_rng(seed).uniform(0.0, EXTENT, (n, 2))
        squared, idx = nearest_points(points, points, k)
        dists, expected = cKDTree(points).query(points, k=min(k, n))
        assert idx.shape == squared.shape == (n, min(k, n))
        assert np.array_equal(idx, expected.reshape(idx.shape))
        assert np.array_equal(np.sqrt(squared), dists.reshape(idx.shape))

    def test_queries_need_not_be_the_points(self):
        rng = np.random.default_rng(4)
        points = rng.uniform(0.0, EXTENT, (300, 2))
        queries = rng.uniform(0.0, EXTENT, (131, 2))
        squared, idx = nearest_points(queries, points, 1)
        dists, expected = cKDTree(points).query(queries, k=1)
        assert np.array_equal(idx[:, 0], expected)
        assert np.array_equal(np.sqrt(squared[:, 0]), dists)


class TestPlanarWiringIsTheParents:
    @pytest.mark.parametrize("seed", [0, 1, 53])
    @pytest.mark.parametrize("neighbours", [0, 1, 2, 3, 5])
    @pytest.mark.parametrize("num_nodes", [2, 3, 5, 40, 128, 129, 257, 513])
    def test_edge_list(self, num_nodes, neighbours, seed):
        network = random_planar_network(num_nodes, neighbours=neighbours, seed=seed)
        edges = sorted(network.edges(), key=lambda e: e.edge_id)
        expected, _bridges = kdtree_planar_edges(num_nodes, neighbours, seed)
        assert [(e.n1, e.n2) for e in edges] == expected

    def test_grid_bridges_several_components(self):
        """The grid above exercises ``connect_components``, not only
        the k-nearest wiring."""
        assert kdtree_planar_edges(257, 1, 0)[1] > 10
        assert kdtree_planar_edges(40, 0, 1)[1] == 39
        assert kdtree_planar_edges(513, 2, 53)[1] > 1
