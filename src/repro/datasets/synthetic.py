"""Synthetic road-network generators.

The paper's road networks (North America, San Francisco, Bay Area) are
real; we substitute deterministic synthetic networks that preserve the
properties the algorithms are sensitive to — node degree, edge-length
scale, planarity — at a configurable size (see DESIGN.md §2,
Substitutions).  Two families are provided:

* :func:`grid_network` — a perturbed grid, sparse and nearly planar,
  resembling the North-America road graph (edge/node ratio ≈ 1);
* :func:`random_planar_network` — a k-nearest-neighbour graph over
  random points, denser, resembling urban networks such as the Bay
  Area graph (edge/node ratio ≈ 2.5).

All coordinates live in the paper's ``[0, 10000]^2`` space and all
randomness is seeded.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import DatasetError
from ..network.graph import RoadNetwork

__all__ = [
    "grid_network",
    "random_planar_network",
    "connect_components",
    "nearest_points",
]

EXTENT = 10000.0

#: A grid node's shift, as a fraction of the cell size, and the share of
#: non-tree edges a grid drops.
JITTER = 0.25
DROP_PROB = 0.08

#: Query rows per distance block of :func:`nearest_points`.
_BLOCK_ROWS = 128


def nearest_points(
    queries: np.ndarray, points: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The ``k`` points nearest each query, by exact brute force.

    Returns ``(squared_distances, indexes)``, both of shape
    ``(len(queries), min(k, len(points)))``, nearest first; indexes are
    rows of ``points``.  Distances are ``dx·dx + dy·dy`` in float64 with
    no square root — callers that compare *across* queries take the
    root themselves, since it can merge two squared values.  The order
    of two points at exactly the same distance from one query is not
    defined (uniform random coordinates do not produce any).

    Cost is ``len(queries) × len(points)`` distance cells, computed in
    blocks of ``_BLOCK_ROWS`` queries so the transient is three arrays
    of one block (12 MiB at 4 096 points).  That is the right size for
    the networks that exist — every profile has at most 4 096 nodes,
    0.07–0.14 s here, where importing scipy's k-d tree cost every
    process 0.25 s and 29 MiB — and the wrong one far beyond them: it
    grows with the square, 3.1 s at 20 000 points where a k-d tree
    takes 0.04 s, so a network of that size wants a spatial index here.
    """
    k = min(k, len(points))
    xs = np.ascontiguousarray(points[:, 0])
    ys = np.ascontiguousarray(points[:, 1])
    squared = np.empty((len(queries), k), dtype=np.float64)
    indexes = np.empty((len(queries), k), dtype=np.intp)
    for start in range(0, len(queries), _BLOCK_ROWS):
        block = queries[start : start + _BLOCK_ROWS]
        cells = block[:, 0, None] - xs
        cells *= cells
        dy = block[:, 1, None] - ys
        dy *= dy
        cells += dy
        nearest = np.argpartition(cells, k - 1, axis=1)[:, :k]
        found = np.take_along_axis(cells, nearest, axis=1)
        order = np.argsort(found, axis=1, kind="stable")
        stop = start + len(block)
        squared[start:stop] = np.take_along_axis(found, order, axis=1)
        indexes[start:stop] = np.take_along_axis(nearest, order, axis=1)
    return squared, indexes


def grid_network(
    rows: int,
    cols: int,
    seed: int = 0,
) -> RoadNetwork:
    """A jittered grid network with some edges removed.

    :data:`JITTER` perturbs node positions by that fraction of the cell
    size; :data:`DROP_PROB` removes that fraction of the non-tree edges
    (connectivity is always preserved: a spanning structure is kept).
    """
    if rows < 2 or cols < 2:
        raise DatasetError("grid needs at least 2x2 nodes")
    rng = np.random.default_rng(seed)
    network = RoadNetwork()
    dx = EXTENT / (cols - 1)
    dy = EXTENT / (rows - 1)
    for r in range(rows):
        for c in range(cols):
            jx = rng.uniform(-JITTER, JITTER) * dx if 0 < c < cols - 1 else 0.0
            jy = rng.uniform(-JITTER, JITTER) * dy if 0 < r < rows - 1 else 0.0
            network.add_node(r * cols + c, c * dx + jx, r * dy + jy)

    # Horizontal tree backbone plus the first column: always kept.
    for r in range(rows):
        for c in range(cols - 1):
            network.add_edge(r * cols + c, r * cols + c + 1)
    for r in range(rows - 1):
        network.add_edge(r * cols, (r + 1) * cols)
    # Remaining vertical edges are dropped independently.
    for r in range(rows - 1):
        for c in range(1, cols):
            if rng.random() >= DROP_PROB:
                network.add_edge(r * cols + c, (r + 1) * cols + c)
    return network


def random_planar_network(
    num_nodes: int,
    neighbours: int = 3,
    seed: int = 0,
) -> RoadNetwork:
    """A k-nearest-neighbour graph over uniform random points.

    Every node is linked to its ``neighbours`` nearest points (edges
    deduplicated), then disconnected components are stitched together
    with their closest cross pairs, so the result is connected with an
    edge/node ratio of roughly ``neighbours`` ÷ 2 + ε.
    """
    if num_nodes < 2:
        raise DatasetError("need at least 2 nodes")
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, EXTENT, size=(num_nodes, 2))
    network = RoadNetwork()
    for i, (x, y) in enumerate(points):
        network.add_node(i, float(x), float(y))

    # Column 0 is the point itself, at distance 0.
    _squared, idx = nearest_points(points, points, neighbours + 1)
    seen = set()
    for i, row in enumerate(idx.tolist()):
        for j in row[1:]:
            a, b = (i, j) if i < j else (j, i)
            if a != b and (a, b) not in seen:
                seen.add((a, b))
                network.add_edge(a, b)
    connect_components(network, points)
    return network


def connect_components(network: RoadNetwork, points: np.ndarray) -> None:
    """Stitch disconnected components with closest-pair bridge edges."""
    parent = list(range(network.num_nodes))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        parent[find(a)] = find(b)

    for edge in network.edges():
        union(edge.n1, edge.n2)

    components: dict = {}
    for i in range(network.num_nodes):
        components.setdefault(find(i), []).append(i)
    comps = list(components.values())
    while len(comps) > 1:
        base = comps[0]
        other = comps[1]
        squared, nearest = nearest_points(points[other], points[base], 1)
        pick = int(np.argmin(np.sqrt(squared[:, 0])))
        a = other[pick]
        b = base[int(nearest[pick, 0])]
        if network.edge_between(a, b) is None:
            network.add_edge(a, b)
        union(a, b)
        comps = [base + other] + comps[2:]
