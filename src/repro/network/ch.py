"""Contraction-Hierarchies (CH) distance oracle.

The paper calls the diversified search's pairwise ``δ(o_i, o_j)``
evaluations "cost expensive" (§4.1): every distinct candidate source
pays one bounded Dijkstra that settles thousands of nodes.  A
Contraction Hierarchy answers the same *exact* distances by settling
tens of nodes instead:

* **Offline contraction** — nodes are contracted one by one in
  importance order (edge-difference + deleted-neighbours heuristic
  with lazy priority updates).  Contracting ``v`` inserts a *shortcut*
  ``(u, w)`` of weight ``δ(u, v) + δ(v, w)`` for every neighbour pair
  whose shortest path would otherwise be severed — unless a bounded
  *witness search* in the remaining graph (excluding ``v``) proves a
  path no longer than the shortcut already exists.  The search reuses
  the shared node-source Dijkstra kernel
  (:func:`repro.network.distance.node_source_distances`).

* **Upward adjacency arrays** — at the moment ``v`` is contracted,
  every remaining neighbour outranks it, so its adjacency list *is*
  its upward edge list.  The full hierarchy is the union of original
  edges and shortcuts, each stored once at its lower-ranked endpoint.

* **Query** — ``δ(a, b)`` is a bidirectional Dijkstra restricted to
  upward edges from both sides; the CH property guarantees the
  shortest path distance is ``min_x d↑(a, x) + d↑(b, x)`` over nodes
  settled by both searches.  Network *positions* seed each side with
  their edge's two end-nodes (offset / weight − offset), exactly like
  :func:`repro.network.distance.seed_distances`; the paper's same-edge
  rule short-circuits shared-edge pairs before any search.

* **Matrix** — the candidate×candidate matrix runs one upward search
  per position and joins each pair's two search spaces.

No query runs on this oracle: it orders the hub labels
(:mod:`repro.network.hub_labels`), and tests check the Dijkstra
backends against it.  Correctness does not depend on the
witness-search settle budget: an exhausted budget merely inserts a
redundant shortcut (whose weight is the length of a real path), never
a wrong one.  Distances beyond ``cutoff`` report ``inf``, matching the
bounded-Dijkstra backend's contract bit for bit.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Sequence, Tuple

from ..errors import GraphError
from .distance import INF, node_source_distances, seed_distances
from .graph import NetworkPosition, RoadNetwork

__all__ = ["ContractionHierarchy"]

#: Settled nodes one witness search may take before it gives up and the
#: shortcut is inserted.
MAX_WITNESS_SETTLED = 50


class _DictAdjacency:
    """Adjacency-provider view of the mutable contraction-time graph.

    Lets the witness searches reuse the shared node-source Dijkstra
    kernel; the fake edge id ``-1`` is never read by it.
    """

    __slots__ = ("_adj",)

    def __init__(self, adj: Dict[int, Dict[int, float]]) -> None:
        self._adj = adj

    def neighbors(self, node_id: int) -> List[Tuple[int, int, float]]:
        return [
            (-1, other, weight)
            for other, weight in self._adj.get(node_id, {}).items()
        ]


class ContractionHierarchy:
    """An exact point-to-point / many-to-many network-distance oracle.

    Immutable once constructed, so one instance may be shared by every
    query of a database across any number of threads.  Implements the
    :class:`repro.network.distance.DistanceBackend` protocol.

    :data:`MAX_WITNESS_SETTLED` caps each witness search's
    settled-node count.  A smaller budget builds faster but inserts
    more (still correct) shortcuts; 50 is generous enough that
    road-like graphs stay near-minimal.
    """

    name = "ch"

    def __init__(self, network: RoadNetwork) -> None:
        if network.num_nodes == 0:
            raise GraphError(
                "cannot build a contraction hierarchy on an empty network"
            )
        self._network = network
        #: rank[v] = contraction order (0 = contracted first / least
        #: important).  Queries never read it directly — the upward
        #: lists already encode it — but it is invaluable in tests.
        self.rank: Dict[int, int] = {}
        self._up: Dict[int, List[Tuple[int, float]]] = {}
        self.shortcuts_added = 0
        self.num_nodes = network.num_nodes
        self._contract_all()
        self.upward_edges = sum(len(edges) for edges in self._up.values())

    # ------------------------------------------------------------------
    # Offline contraction
    # ------------------------------------------------------------------
    def _required_shortcuts(
        self,
        adj: Dict[int, Dict[int, float]],
        provider: _DictAdjacency,
        v: int,
    ) -> List[Tuple[int, int, float]]:
        """Shortcuts contracting ``v`` would need, after witness search.

        One multi-target witness search per neighbour ``u`` covers
        every later neighbour ``w`` at once (cutoff = the longest
        candidate shortcut through ``v``).  An existing ``(u, w)`` edge
        no longer than the shortcut witnesses it automatically — the
        search runs in the graph that contains it.
        """
        neighbors = sorted(adj[v].items())
        needed: List[Tuple[int, int, float]] = []
        for i, (u, du) in enumerate(neighbors):
            targets = {w: du + dw for w, dw in neighbors[i + 1:]}
            if not targets:
                continue
            witness = node_source_distances(
                provider,
                u,
                cutoff=max(targets.values()),
                ignore=v,
                targets=targets,
                max_settled=MAX_WITNESS_SETTLED,
            )
            for w, via in targets.items():
                if witness.get(w, INF) > via:
                    needed.append((u, w, via))
        return needed

    def _contract_all(self) -> None:
        # Working graph: only *uncontracted* nodes, min weight per pair
        # (original edges first, shortcuts merged in as we go).
        adj: Dict[int, Dict[int, float]] = {
            node.node_id: {} for node in self._network.nodes()
        }
        for edge in self._network.edges():
            for a, b in ((edge.n1, edge.n2), (edge.n2, edge.n1)):
                cur = adj[a].get(b)
                if cur is None or edge.weight < cur:
                    adj[a][b] = edge.weight
        provider = _DictAdjacency(adj)
        deleted: Dict[int, int] = {node_id: 0 for node_id in adj}

        def priority(v: int) -> float:
            shortcuts = len(self._required_shortcuts(adj, provider, v))
            return shortcuts - len(adj[v]) + deleted[v]

        heap: List[Tuple[float, int]] = [(priority(v), v) for v in adj]
        heapq.heapify(heap)
        order = 0
        while heap:
            _, v = heapq.heappop(heap)
            if v in self.rank:
                continue
            # Lazy update: neighbours contracted since this entry was
            # pushed may have changed v's cost; recompute and re-queue
            # unless v still (weakly) beats the next candidate.
            current = priority(v)
            if heap and current > heap[0][0]:
                heapq.heappush(heap, (current, v))
                continue
            for u, w, via in self._required_shortcuts(adj, provider, v):
                existing = adj[u].get(w)
                if existing is None or via < existing:
                    adj[u][w] = via
                    adj[w][u] = via
                    if existing is None:
                        self.shortcuts_added += 1
            # v's remaining neighbours all outrank it: its adjacency at
            # contraction time is exactly its upward edge list.
            self._up[v] = sorted(adj[v].items())
            for u in adj[v]:
                del adj[u][v]
                deleted[u] += 1
            del adj[v]
            self.rank[v] = order
            order += 1

    # ------------------------------------------------------------------
    # Query-time upward searches
    # ------------------------------------------------------------------
    def _upward_search(
        self, seeds: Dict[int, float], cutoff: float = INF
    ) -> Dict[int, float]:
        """Dijkstra over upward edges only, from (node → cost) seeds."""
        dist: Dict[int, float] = {}
        best: Dict[int, float] = {}
        for node, d in seeds.items():
            if d <= cutoff and d < best.get(node, INF):
                best[node] = d
        heap = [(d, node) for node, d in best.items()]
        heapq.heapify(heap)
        up = self._up
        while heap:
            d, node = heapq.heappop(heap)
            if node in dist:
                continue
            dist[node] = d
            for other, weight in up[node]:
                nd = d + weight
                if nd <= cutoff and other not in dist and nd < best.get(other, INF):
                    best[other] = nd
                    heapq.heappush(heap, (nd, other))
        return dist

    @staticmethod
    def _join(
        forward: Dict[int, float], backward: Dict[int, float]
    ) -> float:
        """Minimum meeting cost of two upward search spaces."""
        if len(backward) < len(forward):
            forward, backward = backward, forward
        best = INF
        for node, df in forward.items():
            db = backward.get(node)
            if db is not None and df + db < best:
                best = df + db
        return best

    def node_distance(self, a: int, b: int, cutoff: float = INF) -> float:
        """Exact node-to-node distance; ``inf`` beyond ``cutoff``."""
        if a == b:
            return 0.0
        forward = self._upward_search({a: 0.0}, cutoff)
        backward = self._upward_search({b: 0.0}, cutoff)
        d = self._join(forward, backward)
        return d if d <= cutoff else INF

    def _position_search(
        self, pos: NetworkPosition, cutoff: float
    ) -> Dict[int, float]:
        """The upward search space of a network position, seeded with
        its edge's two end-nodes."""
        return self._upward_search(seed_distances(self._network, pos), cutoff)

    def position_distance(
        self, a: NetworkPosition, b: NetworkPosition, cutoff: float = INF
    ) -> float:
        """Exact ``δ(a, b)`` between network positions (Equation 1).

        The same-edge rule answers shared-edge pairs directly; other
        pairs seed each side's upward search with the position's two
        edge end-nodes, so the result equals the Dijkstra backend's on
        every input.
        """
        if a.edge_id == b.edge_id:
            return abs(a.offset - b.offset)
        d = self._join(
            self._position_search(a, cutoff), self._position_search(b, cutoff)
        )
        return d if d <= cutoff else INF

    def position_matrix(
        self, positions: Sequence[NetworkPosition], cutoff: float = INF
    ) -> Dict[Tuple[int, int], float]:
        """The full pairwise matrix as an ``(i, j) → δ`` dict, ``i < j``.

        One upward search per position; every pair is then the point
        query's own join (:meth:`position_distance`).
        """
        pos_list = list(positions)
        spaces = [self._position_search(pos, cutoff) for pos in pos_list]
        out: Dict[Tuple[int, int], float] = {}
        for i, a in enumerate(pos_list):
            for j in range(i + 1, len(pos_list)):
                b = pos_list[j]
                if a.edge_id == b.edge_id:
                    out[(i, j)] = abs(a.offset - b.offset)
                else:
                    d = self._join(spaces[i], spaces[j])
                    out[(i, j)] = d if d <= cutoff else INF
        return out

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return (
            f"ContractionHierarchy(nodes={self.num_nodes}, "
            f"shortcuts={self.shortcuts_added}, "
            f"upward_edges={self.upward_edges})"
        )
