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
  pair;
* :func:`signature_edges`, :func:`sifp_segments` and :func:`sifp_bit`
  — one keyword's signature row as an edge set, and SIF-P's virtual
  edges and per-slot bit ``I(e_v, t)``, read slot by slot: what the
  loaders' combined rows must agree with;
* :func:`validate_network` — the structural invariants of a road
  network, for the generators' and the update path's tests;
* :func:`walk_spans`, :func:`spans_named` and :func:`event_count` — a
  span tree read depth-first, for the tests of what a traced query
  records;
* :func:`sk_part` — the boolean SK range query under a diversified
  one, whose answer is the diversified query's candidate pool;
* :class:`InMemorySink` — a metrics sink that keeps every record, for
  the tests of what a query emits.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.objective import DiversificationObjective
from repro.core.queries import ResultItem, SKQuery
from repro.errors import GraphError
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
    "sifp_bit",
    "sifp_segments",
    "signature_edges",
    "validate_network",
    "event_count",
    "spans_named",
    "walk_spans",
    "sk_part",
    "InMemorySink",
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


def signature_edges(signatures, term: str) -> frozenset:
    """The edges whose bit is set in ``term``'s signature row (the
    row :meth:`~repro.index.signature.SignatureFile.combined_row` of
    one term gives); empty for an unsigned term, which has no row."""
    row = signatures.combined_row([term]) or 0
    return frozenset(i for i in range(row.bit_length()) if (row >> i) & 1)


def sifp_segments(index, edge_id: int) -> List[Tuple[int, int]]:
    """SIF-P's virtual-edge object ranges of an edge; one range when
    the edge is uncut."""
    segments = index._segments.get(edge_id)
    if segments is not None:
        return segments
    count = len(index._store.objects_on_edge(edge_id))
    return [(0, max(0, count - 1))]


def sifp_bit(index, edge_id: int, v_idx: int, term: str) -> bool:
    """SIF-P's ``I(e_v, t)`` for one virtual edge: an unsigned term
    passes; a term or an edge with no row fails."""
    if term in index._unsigned_terms:
        return True
    matrix = index._matrix
    base = index._slot_base.get(edge_id)
    if term not in matrix or base is None:
        return False
    return matrix.probe(matrix.combined((term,)), base + v_idx)


def validate_network(network: RoadNetwork) -> None:
    """Raise :class:`~repro.errors.GraphError` unless every edge joins
    two known, distinct nodes and every adjacency entry agrees with its
    edge's end-nodes and weight."""
    nodes = {node.node_id for node in network.nodes()}
    edges = {edge.edge_id: edge for edge in network.edges()}
    for edge in edges.values():
        if edge.n1 == edge.n2:
            # Unreachable through add_edge / Edge (both reject loops);
            # guards against corruption from direct _edges injection.
            raise GraphError(f"edge {edge.edge_id} is a self-loop")
        for nid in (edge.n1, edge.n2):
            if nid not in nodes:
                raise GraphError(f"edge {edge.edge_id} references unknown {nid}")
    for node_id in nodes:
        for edge_id, other, weight in network.neighbors(node_id):
            edge = edges.get(edge_id)
            if edge is None:
                raise GraphError(f"adjacency references unknown edge {edge_id}")
            if node_id not in (edge.n1, edge.n2) or other not in (edge.n1, edge.n2):
                raise GraphError(f"adjacency/edge mismatch on edge {edge_id}")
            if abs(weight - edge.weight) > 1e-9:
                raise GraphError(f"adjacency weight mismatch on edge {edge_id}")


def walk_spans(span):
    """``span`` and every descendant, depth-first."""
    yield span
    for child in span.children:
        yield from walk_spans(child)


def spans_named(span, name: str) -> list:
    """Every span of ``span``'s tree named ``name``, depth-first."""
    return [s for s in walk_spans(span) if s.name == name]


def event_count(span, name: str) -> int:
    """How many of ``span``'s own events are named ``name``."""
    return sum(1 for event_name, _t, _a in span.events if event_name == name)


def sk_part(query) -> SKQuery:
    """The SK range query over a diversified query's position, terms
    and δmax."""
    return SKQuery(query.position, query.terms, query.delta_max)


class InMemorySink:
    """Collects every record a metrics registry emits."""

    def __init__(self) -> None:
        self.records: List[Dict] = []

    def emit(self, record: Dict) -> None:
        self.records.append(record)

    def of_type(self, record_type: str) -> List[Dict]:
        """Records whose ``"type"`` field equals ``record_type``."""
        return [r for r in self.records if r.get("type") == record_type]
