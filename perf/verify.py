"""Answer verification: invariants, an independent oracle, golden digests.

The oracle shares no code with the engine.  It reads the *data* — the
edges of ``db.network`` and the objects of ``db.store`` — and recomputes
answers with a plain ``heapq`` Dijkstra and a brute-force term filter.
It follows the paper's distance definition as the engine documents it:
two positions on one edge are ``|offset difference|`` apart, any other
pair is joined through the end-nodes of their edges (Equation 1).
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
from itertools import combinations
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "REL_TOL", "Oracle", "check_invariants", "check_against_oracle",
    "result_digest", "load_golden", "golden_path",
]

#: Relative tolerance between an engine distance and the oracle's: both
#: sum the same edge weights, possibly in another order.
REL_TOL = 1e-9


def dijkstra(adjacency: Dict[int, List[Tuple[int, float]]],
             seeds: Dict[int, float], cutoff: float = math.inf) -> Dict[int, float]:
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
    """Brute-force reference answers over a snapshot of the graph.

    Built from plain tuples so a hand-made graph can be checked too:
    ``edges`` are ``(edge_id, n1, n2, weight)``, ``objects`` are
    ``(object_id, edge_id, offset, keywords)``.
    """

    def __init__(self, edges: Iterable[Tuple[int, int, int, float]],
                 objects: Iterable[Tuple[int, int, float, frozenset]]) -> None:
        self.edges = {e[0]: (e[1], e[2], e[3]) for e in edges}
        self.objects = list(objects)
        self.adjacency: Dict[int, List[Tuple[int, float]]] = {}
        for n1, n2, weight in self.edges.values():
            self.adjacency.setdefault(n1, []).append((n2, weight))
            self.adjacency.setdefault(n2, []).append((n1, weight))

    @classmethod
    def of_database(cls, db) -> "Oracle":
        """Snapshot the database's current graph and objects."""
        return cls(
            ((e.edge_id, e.n1, e.n2, e.weight) for e in db.network.edges()),
            ((o.object_id, o.position.edge_id, o.position.offset, o.keywords)
             for o in db.store),
        )

    def _seeds(self, edge_id: int, offset: float) -> Dict[int, float]:
        n1, n2, weight = self.edges[edge_id]
        return {n1: offset, n2: weight - offset}

    def distances_from(self, edge_id: int, offset: float,
                       cutoff: float = math.inf):
        """A function ``(edge_id, offset) -> distance`` from one position."""
        node_dist = dijkstra(self.adjacency, self._seeds(edge_id, offset), cutoff)

        def to(target_edge: int, target_offset: float) -> float:
            if target_edge == edge_id:
                return abs(target_offset - offset)
            n1, n2, weight = self.edges[target_edge]
            return min(
                node_dist.get(n1, math.inf) + target_offset,
                node_dist.get(n2, math.inf) + (weight - target_offset),
            )

        return to

    def sk_range(self, edge_id: int, offset: float, terms: frozenset,
                 delta_max: float) -> Dict[int, float]:
        """Every object holding all ``terms`` within ``delta_max``."""
        to = self.distances_from(edge_id, offset, cutoff=delta_max)
        answer = {}
        for object_id, obj_edge, obj_offset, keywords in self.objects:
            if terms <= keywords:
                d = to(obj_edge, obj_offset)
                if d <= delta_max:
                    answer[object_id] = d
        return answer

    def objective(self, positions: Sequence[Tuple[int, float]],
                  query_distances: Sequence[float], delta_max: float,
                  lambda_: float) -> float:
        """The max-sum objective f(S) of DESIGN.md §1, from scratch."""
        k = len(positions)
        if k == 0:
            return 0.0

        def rel(d: float) -> float:
            return max(0.0, min(1.0, 1.0 - d / delta_max))

        if k == 1:
            return lambda_ * rel(query_distances[0])
        sources = [self.distances_from(e, o) for e, o in positions[:-1]]
        total = 0.0
        for i, j in combinations(range(k), 2):
            pair = sources[i](*positions[j])
            div = max(0.0, min(1.0, pair / (2.0 * delta_max)))
            total += (
                lambda_ * (rel(query_distances[i]) + rel(query_distances[j])) / 2.0
                + (1.0 - lambda_) * div
            )
        return 2.0 * total / (k * (k - 1))


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= REL_TOL * max(scale, abs(a), abs(b))


def check_invariants(op, result) -> List[str]:
    """Cheap checks run on every result; returns the violations."""
    problems = []
    ids = [item.object.object_id for item in result.items]
    if len(set(ids)) != len(ids):
        problems.append("duplicate objects in the result")
    for item in result.items:
        if not op.terms <= item.object.keywords:
            problems.append(f"object {item.object.object_id} lacks a query term")
        if not item.distance <= op.delta_max * (1.0 + REL_TOL):
            problems.append(
                f"object {item.object.object_id} at {item.distance} > delta_max"
            )
    distances = [item.distance for item in result.items]
    if op.kind == "sk":
        if distances != sorted(distances):
            problems.append("SK result is not sorted by distance")
    else:
        expected = min(op.k, result.stats.candidates)
        if len(result.items) != expected:
            problems.append(
                f"|S| = {len(result.items)}, expected min(k, candidates) = {expected}"
            )
        if not (math.isfinite(result.objective_value)
                and -REL_TOL <= result.objective_value <= 1.0 + REL_TOL):
            problems.append(f"objective {result.objective_value} outside [0, 1]")
    return problems


def check_against_oracle(oracle: Oracle, op, position, result,
                         stream: Optional[list] = None) -> List[str]:
    """Recompute the answer independently; returns the mismatches.

    ``stream`` is the list of candidates the expansion emitted, when the
    traced pass captured it: then the candidate *set* is compared, not
    only its size.
    """
    truth = oracle.sk_range(
        position.edge_id, position.offset, op.terms, op.delta_max
    )
    # An object within rounding of delta_max may fall either side.
    edge_band = {
        oid for oid, d in truth.items()
        if d >= op.delta_max * (1.0 - REL_TOL)
    }
    problems = []
    for item in result.items:
        oid = item.object.object_id
        if oid not in truth:
            problems.append(f"object {oid} is not in the oracle's answer")
        elif not _close(item.distance, truth[oid], op.delta_max):
            problems.append(
                f"object {oid}: distance {item.distance!r} vs oracle {truth[oid]!r}"
            )
    returned = {item.object.object_id for item in result.items}
    if op.kind == "sk":
        missing = set(truth) - returned - edge_band
        if missing:
            problems.append(f"SK answer misses objects {sorted(missing)[:5]}")
        return problems

    stats = result.stats
    if stats.expansion_terminated_early:
        if stats.candidates > len(truth):
            problems.append("more candidates than the oracle has matches")
    elif not len(truth) - len(edge_band) <= stats.candidates <= len(truth):
        problems.append(
            f"{stats.candidates} candidates vs {len(truth)} oracle matches"
        )
    if stream is not None:
        seen = {item.object.object_id for item in stream}
        if not seen <= set(truth):
            problems.append("the expansion emitted a non-matching object")
        # Candidates arrive in distance order, so an early-terminated
        # stream must hold every match nearer than its last arrival.
        horizon = (
            max((item.distance for item in stream), default=0.0)
            if stats.expansion_terminated_early else math.inf
        )
        skipped = {
            oid for oid, d in truth.items()
            if d < horizon * (1.0 - REL_TOL) and oid not in seen
        } - edge_band
        if skipped:
            problems.append(f"candidate set misses objects {sorted(skipped)[:5]}")
    recomputed = oracle.objective(
        [(it.object.position.edge_id, it.object.position.offset)
         for it in result.items],
        [it.distance for it in result.items], op.delta_max, op.lambda_,
    )
    if abs(recomputed - result.objective_value) > 1e-9:
        problems.append(
            f"objective {result.objective_value!r} vs oracle {recomputed!r}"
        )
    return problems


def result_digest(result) -> str:
    """Object ids, distances at 6 significant digits, objective at 9."""
    parts = [
        f"{item.object.object_id}:{item.distance:.6g}" for item in result.items
    ]
    objective = getattr(result, "objective_value", None)
    if objective is not None:
        parts.append(f"f={objective:.9g}")
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


def golden_path(directory: Path, workload: str, seed: int) -> Path:
    return Path(directory) / f"{workload}.seed{seed}.json"


def load_golden(directory: Path, workload: str, seed: int,
                scale: float, versions: Dict[str, str]) -> Optional[List[str]]:
    """The committed digests for this configuration, or ``None``.

    Digests are only comparable on the dataset they were recorded on:
    another scale, or another numpy/scipy (which generate the dataset),
    means the invariants and the oracle carry verification alone.
    """
    path = golden_path(directory, workload, seed)
    if not path.exists():
        return None
    golden = json.loads(path.read_text())
    if golden["scale"] != scale or golden["versions"] != versions:
        return None
    return golden["digests"]
