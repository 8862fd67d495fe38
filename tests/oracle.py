"""A reference for answers that shares no code with the engine.

It reads only data — the edges of ``db.network`` and the objects of
``db.store`` — and recomputes answers with a plain ``heapq`` Dijkstra
and a brute-force term filter.  Distances follow the paper: two
positions on one edge are ``|offset difference|`` apart, any other pair
is joined through the end-nodes of their edges (Equation 1).  ``f(S)``
is the max-sum objective of DESIGN.md §1, written out again here.

Nothing here imports ``repro.network.distance`` or ``repro.core``, so a
fault in the engine's search, its same-edge rule or its objective
cannot cancel out against itself.
"""

from __future__ import annotations

import heapq
import math
from itertools import combinations
from typing import Dict, List, Sequence, Tuple

__all__ = ["Oracle", "dijkstra"]


def dijkstra(
    adjacency: Dict[int, List[Tuple[int, float]]],
    seeds: Dict[int, float],
    cutoff: float = math.inf,
) -> Dict[int, float]:
    """Distances of every node within ``cutoff`` of the seeded nodes."""
    dist: Dict[int, float] = {}
    heap = [(d, n) for n, d in seeds.items() if d <= cutoff]
    heapq.heapify(heap)
    while heap:
        d, node = heapq.heappop(heap)
        if node in dist:
            continue
        dist[node] = d
        for other, weight in adjacency.get(node, ()):
            nd = d + weight
            if nd <= cutoff and other not in dist:
                heapq.heappush(heap, (nd, other))
    return dist


class Oracle:
    """Brute-force answers over a snapshot of one database.

    A position is anything with ``edge_id`` and ``offset``.
    """

    def __init__(self, db) -> None:
        self.edges = {
            e.edge_id: (e.n1, e.n2, e.weight) for e in db.network.edges()
        }
        self.objects = [
            (o.object_id, o.position, o.keywords) for o in db.store
        ]
        self.adjacency: Dict[int, List[Tuple[int, float]]] = {}
        for n1, n2, weight in self.edges.values():
            self.adjacency.setdefault(n1, []).append((n2, weight))
            self.adjacency.setdefault(n2, []).append((n1, weight))

    def distances_from(self, source, cutoff: float = math.inf):
        """A function ``position -> δ(source, position)``."""
        n1, n2, weight = self.edges[source.edge_id]
        node_dist = dijkstra(
            self.adjacency, {n1: source.offset, n2: weight - source.offset},
            cutoff,
        )

        def to(target) -> float:
            if target.edge_id == source.edge_id:
                return abs(target.offset - source.offset)
            t1, t2, t_weight = self.edges[target.edge_id]
            return min(
                node_dist.get(t1, math.inf) + target.offset,
                node_dist.get(t2, math.inf) + (t_weight - target.offset),
            )

        return to

    def sk_range(
        self, position, terms, delta_max: float = math.inf
    ) -> Dict[int, float]:
        """Every object holding all ``terms`` within ``delta_max``."""
        to = self.distances_from(position, cutoff=delta_max)
        answer = {}
        for object_id, obj_position, keywords in self.objects:
            if terms <= keywords:
                d = to(obj_position)
                if d <= delta_max:
                    answer[object_id] = d
        return answer

    def objective(
        self, positions: Sequence, query_distances: Sequence[float],
        delta_max: float, lambda_: float,
    ) -> float:
        """``f(S)`` from oracle pair distances."""
        k = len(positions)

        def rel(d: float) -> float:
            return max(0.0, min(1.0, 1.0 - d / delta_max))

        if k == 0:
            return 0.0
        if k == 1:
            return lambda_ * rel(query_distances[0])
        sources = [self.distances_from(p) for p in positions[:-1]]
        total = 0.0
        for i, j in combinations(range(k), 2):
            pair = sources[i](positions[j])
            div = max(0.0, min(1.0, pair / (2.0 * delta_max)))
            total += (
                lambda_ * (rel(query_distances[i]) + rel(query_distances[j]))
                / 2.0
                + (1.0 - lambda_) * div
            )
        return 2.0 * total / (k * (k - 1))
