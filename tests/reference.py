"""References the tests hold the engine to, written against ``repro``.

Unlike :mod:`tests.oracle`, which shares no code with the engine, these
are the engine's own earlier or slower forms, kept where only a test
reaches them:

* :func:`network_distance` — one pair's distance by Equation 1 over the
  engine's shared search (:func:`repro.network.distance.seeded_distances`),
  stopped once the target's end-nodes settle;
* :func:`matrix_from_pairs` / :func:`pair_by_pair` — a pool's pair
  matrix asked one pair at a time, for pair sources with no batched
  form (a test's closure);
* :func:`scalar_greedy` — Algorithm 1 as a pure-Python loop with a
  lazy per-pair θ cache: what the array greedy
  (:func:`repro.core.diversify.greedy_diversify`) must pick, pair for
  pair.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.objective import DiversificationObjective
from repro.core.queries import ResultItem
from repro.network.distance import (
    AdjacencyProvider,
    position_distance_from_node_map,
    seed_distances,
    seeded_distances,
)
from repro.network.graph import NetworkPosition, RoadNetwork

__all__ = [
    "matrix_from_pairs",
    "network_distance",
    "pair_by_pair",
    "scalar_greedy",
]

PairDistance = Callable[[ResultItem, ResultItem], float]


def network_distance(
    provider: AdjacencyProvider,
    network: RoadNetwork,
    a: NetworkPosition,
    b: NetworkPosition,
    cutoff: float = math.inf,
) -> float:
    """Network distance ``δ(a, b)``; ``inf`` when beyond ``cutoff``.

    Two positions on one edge are pinned at the along-edge distance
    (paper: ``δ(q, p) = w(q, p)`` if both lie on one edge).  Otherwise
    Equation 1 over the shared search from ``a``'s seeds, stopped once
    ``b``'s two end-nodes settle.
    """
    if a.edge_id == b.edge_id:
        return abs(a.offset - b.offset)
    edge_b = network.edge(b.edge_id)
    labels = seeded_distances(
        provider, seed_distances(network, a), cutoff,
        targets=(edge_b.n1, edge_b.n2),
    )
    best = position_distance_from_node_map(network, labels, b)
    return best if best <= cutoff else math.inf


def matrix_from_pairs(
    items: Sequence[ResultItem], pair_distance: PairDistance
) -> "np.ndarray":
    """The pair matrix of ``items``, asked one pair at a time in
    lexicographic ``(i, j)`` order — the order ``objective()`` sums in
    and :func:`scalar_greedy` walks — so a caching source runs the same
    searches either way."""
    n = len(items)
    matrix = np.zeros((n, n))
    for i, j in combinations(range(n), 2):
        matrix[i, j] = matrix[j, i] = pair_distance(items[i], items[j])
    return matrix


def pair_by_pair(pair_distance: PairDistance):
    """A pair-matrix builder over ``pair_distance``, for
    ``greedy_diversify`` and ``CorePairMaintainer(pair_matrix=...)``."""
    return lambda items: matrix_from_pairs(items, pair_distance)


def scalar_greedy(
    candidates: Sequence[ResultItem],
    k: int,
    objective: DiversificationObjective,
    pair_distance: PairDistance,
) -> List[ResultItem]:
    """Algorithm 1, one pair at a time: each round walks the unpicked
    pairs ``(i, j)`` of the ``(distance, id)``-sorted pool in
    lexicographic order and keeps the first strict maximum of θ.  With
    odd ``k`` the closest remaining object fills the last slot; fewer
    than ``k`` candidates come back as they are, in distance order."""
    if k <= 0:
        return []
    pool = sorted(candidates, key=lambda it: (it.distance, it.object.object_id))
    if len(pool) <= k:
        return pool

    theta_cache: Dict[Tuple[int, int], float] = {}

    def theta_of(i: int, j: int) -> float:
        key = (i, j) if i < j else (j, i)
        value = theta_cache.get(key)
        if value is None:
            u, v = pool[key[0]], pool[key[1]]
            value = objective.theta(u.distance, v.distance, pair_distance(u, v))
            theta_cache[key] = value
        return value

    remaining = set(range(len(pool)))
    chosen: List[int] = []
    for _ in range(k // 2):
        best_pair: Tuple[int, int] = (-1, -1)
        best_theta = float("-inf")
        order = sorted(remaining)
        for a_pos, i in enumerate(order):
            for j in order[a_pos + 1:]:
                t = theta_of(i, j)
                if t > best_theta:
                    best_theta = t
                    best_pair = (i, j)
        if best_pair[0] < 0:
            break
        chosen.extend(best_pair)
        remaining.discard(best_pair[0])
        remaining.discard(best_pair[1])
        if len(remaining) < 2:
            break
    if len(chosen) < k and remaining:
        chosen.append(min(remaining))
    result = [pool[i] for i in chosen[:k]]
    result.sort(key=lambda it: (it.distance, it.object.object_id))
    return result
