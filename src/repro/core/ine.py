"""Incremental network expansion with spatial keyword pruning (Alg. 3).

The expansion integrates Dijkstra's algorithm with INE [Papadias et
al.]: nodes are settled in non-decreasing network distance from the
query; when an edge is reached for the first time its matching objects
are loaded through the object index (Algorithm 2 — this is where the
signature pruning bites) and queued with tentative distances that are
finalised once provably minimal.

:class:`INEExpansion` is a *generator*: objects stream out in
non-decreasing ``δ(q, o)`` order.  The plain SK search materialises the
stream; the incremental diversified search (COM, Algorithm 6) consumes
it lazily and may close it early, terminating the network expansion
exactly as the paper's Algorithm 6 line 16 does.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from ..index.base import GuardedLoader, LoadCounters, ObjectIndex
from ..network.distance import AdjacencyProvider, seed_distances
from ..network.graph import NetworkPosition, RoadNetwork
from ..network.objects import SpatioTextualObject
from ..obs.tracing import NULL_TRACER
from .queries import ResultItem

__all__ = ["ExpansionStats", "INEExpansion"]

#: Settled nodes per traced expansion round.  Tracing records one
#: ``ine.round`` span (frontier size, distance watermark, objects
#: emitted) per this many node settlements, so span count stays
#: proportional to log-scale progress rather than node count.
TRACE_ROUND_NODES = 32


@dataclass
class ExpansionStats:
    """Road-network traversal counters of one expansion (paper's l_n, l_e)."""

    nodes_accessed: int = 0
    edges_accessed: int = 0
    objects_emitted: int = 0
    #: Wall seconds spent fetching edges' objects (Algorithm 2), a
    #: sub-stage of expansion: one timer pair per edge the loader is
    #: called for.  On SIF and SIF-G that is only the edges that pass
    #: the inline signature test; on every other index, every edge.
    load_seconds: float = 0.0


class _RoundTrace:
    """Per-``TRACE_ROUND_NODES`` ``ine.round`` span bookkeeping."""

    __slots__ = (
        "tracer", "stats", "delta_max", "round_idx", "round_nodes",
        "round_edges", "round_emitted", "round_t0", "watermark",
    )

    def __init__(self, tracer, stats: ExpansionStats, delta_max: float) -> None:
        self.tracer = tracer
        self.stats = stats
        self.delta_max = delta_max
        self.round_idx = 0
        self.round_nodes = 0
        self.round_edges = stats.edges_accessed
        self.round_emitted = stats.objects_emitted
        self.round_t0 = time.perf_counter()
        self.watermark = 0.0

    def settle(self, d_n: float, frontier: int) -> None:
        self.watermark = d_n
        self.round_nodes += 1
        if self.round_nodes >= TRACE_ROUND_NODES:
            self.flush(frontier)

    def flush(self, frontier: int) -> None:
        """Record the in-progress expansion round as a span."""
        if self.round_nodes == 0:
            return
        self.tracer.add_span(
            "ine.round",
            time.perf_counter() - self.round_t0,
            start=self.round_t0,
            round=self.round_idx,
            frontier=frontier,
            watermark=self.watermark,
            watermark_fraction=(
                self.watermark / self.delta_max if self.delta_max > 0 else 0.0
            ),
            nodes_settled=self.round_nodes,
            edges_visited=self.stats.edges_accessed - self.round_edges,
            objects_emitted=self.stats.objects_emitted - self.round_emitted,
        )
        self.round_idx += 1
        self.round_nodes = 0
        self.round_edges = self.stats.edges_accessed
        self.round_emitted = self.stats.objects_emitted
        self.round_t0 = time.perf_counter()


class INEExpansion:
    """Algorithm 3 as a resumable object stream.

    Parameters
    ----------
    provider:
        Adjacency provider — the CCAM store in measured runs, so every
        adjacency access is charged to the I/O model.
    network:
        The logical road network (edge metadata only; no traversal).
    index:
        Object index implementing Algorithm 2; :meth:`run` binds its
        ``loader(terms)`` once and calls it per edge — or, for a
        :class:`~repro.index.base.GuardedLoader`, tests the edge against
        its mask inline and calls its ``fetch`` only if the edge passes.
    position, terms, delta_max:
        The SK query.
    counters:
        The query's :class:`~repro.index.base.LoadCounters`, handed to
        the loader (``None``: the index's lifetime totals).
    tracer:
        Optional :class:`~repro.obs.tracing.Tracer`; when enabled the
        expansion records one ``ine.round`` span per
        ``TRACE_ROUND_NODES`` settled nodes under the caller's current
        span, plus an ``ine.terminated`` event with the stop reason.
    """

    def __init__(
        self,
        provider: AdjacencyProvider,
        network: RoadNetwork,
        index: ObjectIndex,
        position: NetworkPosition,
        terms: FrozenSet[str],
        delta_max: float,
        counters: Optional[LoadCounters] = None,
        tracer=NULL_TRACER,
    ) -> None:
        self._provider = provider
        self._network = network
        self._index = index
        self._position = position
        self._terms = terms
        self._delta_max = delta_max
        self._counters = counters
        self._tracer = tracer
        self.stats = ExpansionStats()
        #: ``{node: δ(q, node)}`` for every node the expansion settled,
        #: filled as it goes: once the stream is exhausted, every node
        #: within ``delta_max``, each label the float
        #: :func:`~repro.network.distance.single_source_distances` gives.
        self.labels: Dict[int, float] = {}

    def run(self) -> Iterator[ResultItem]:
        """Yield matching objects in non-decreasing network distance."""
        network = self._network
        position = self._position
        query_edge = position.edge_id
        delta_max = self._delta_max
        stats = self.stats
        neighbors = self._provider.neighbors
        heappush, heappop = heapq.heappush, heapq.heappop
        clock = time.perf_counter
        tracer = self._tracer
        tracing = tracer.enabled
        # Algorithm 2's per-query half, bound when the stream starts.  A
        # one-bit signature guard is tested here, in this frame: an edge
        # it prunes costs one shift, and its tests and prunes are counted
        # in locals and charged to the guard's counters before every
        # yield and when the stream ends.
        load = self._index.loader(self._terms, self._counters, tracer)
        if isinstance(load, GuardedLoader):
            guard, mask, load = load, load.mask, load.fetch
        else:
            guard, mask = None, None
        tests_charged, pruned = stats.edges_accessed, 0

        settled = self.labels = {}
        visited_edges: Set[int] = {query_edge}
        node_heap: List[Tuple[float, int]] = []
        #: matching objects grouped by edge, for endpoint relaxation
        edge_objects: Dict[int, List[SpatioTextualObject]] = {}
        #: object_id -> best tentative distance
        best: Dict[int, float] = {}
        #: object_id -> object (for emission)
        loaded: Dict[int, SpatioTextualObject] = {}
        emitted: Set[int] = set()
        obj_heap: List[Tuple[float, int]] = []

        def queue_object(obj: SpatioTextualObject, dist: float) -> None:
            prev = best.get(obj.object_id)
            if prev is not None and prev <= dist:
                return
            best[obj.object_id] = dist
            loaded[obj.object_id] = obj
            heappush(obj_heap, (dist, obj.object_id))

        def emit_upto(bound: float) -> Iterator[ResultItem]:
            """Objects whose tentative distance can no longer improve."""
            while obj_heap and obj_heap[0][0] <= bound:
                dist, oid = heappop(obj_heap)
                if oid in emitted or dist > best[oid]:
                    continue  # stale heap entry
                if dist > delta_max:
                    continue
                emitted.add(oid)
                stats.objects_emitted += 1
                yield ResultItem(loaded[oid], dist)

        # Seed: the query's own edge.  Its objects use the along-edge
        # distance (paper: δ(q, p) = w(q, p) on a shared edge) and are
        # never relaxed — the loop below skips the query edge.
        stats.edges_accessed += 1
        if mask is not None and (
            query_edge < 0 or not (mask >> query_edge) & 1
        ):
            pruned += 1
            if tracing:
                tracer.event(
                    "signature.prune", edge=query_edge,
                    partition=guard.partition,
                )
        else:
            started = clock()
            matches = load(query_edge)
            stats.load_seconds += clock() - started
            for obj in matches:
                dist = abs(obj.position.offset - position.offset)
                if dist <= delta_max:
                    queue_object(obj, dist)

        for node_id, dist in seed_distances(network, position).items():
            heappush(node_heap, (dist, node_id))

        rounds = _RoundTrace(tracer, stats, delta_max) if tracing else None

        try:
            while node_heap:
                d_n, node_id = heappop(node_heap)
                if node_id in settled:
                    continue
                # Every queued object with tentative distance <= d_n is
                # final: any improvement would route through a node settled
                # later, at distance >= d_n.
                if obj_heap and obj_heap[0][0] <= d_n:
                    if guard is not None:
                        guard.count(
                            stats.edges_accessed - tests_charged, pruned
                        )
                        tests_charged, pruned = stats.edges_accessed, 0
                    yield from emit_upto(d_n)
                if d_n > delta_max:
                    # δ_T exceeded δmax: no unvisited node or object can
                    # qualify any more (paper's termination condition).
                    if tracing:
                        rounds.watermark = d_n
                        tracer.event(
                            "ine.terminated", reason="delta_max", watermark=d_n
                        )
                    break
                settled[node_id] = d_n
                stats.nodes_accessed += 1
                if tracing:
                    rounds.settle(d_n, len(node_heap))

                # Relax the settled node's incident edges (Alg. 3 lines 9-22).
                for edge_id, other, weight in neighbors(node_id):
                    if other not in settled:
                        heappush(node_heap, (d_n + weight, other))
                    if edge_id == query_edge:
                        continue
                    if edge_id not in visited_edges:
                        visited_edges.add(edge_id)
                        stats.edges_accessed += 1
                        if mask is not None and (
                            edge_id < 0 or not (mask >> edge_id) & 1
                        ):
                            pruned += 1
                            if tracing:
                                tracer.event(
                                    "signature.prune", edge=edge_id,
                                    partition=guard.partition,
                                )
                            continue
                        started = clock()
                        matches = load(edge_id)
                        stats.load_seconds += clock() - started
                        if not matches:
                            continue
                        edge_objects[edge_id] = matches
                    else:
                        # Second end-node settled: relax the edge's
                        # objects (Algorithm 3 lines 18-22).
                        matches = edge_objects.get(edge_id)
                        if matches is None:
                            continue
                    edge = network.edge(edge_id)
                    if node_id == edge.n1:
                        for obj in matches:
                            queue_object(obj, d_n + obj.position.offset)
                    else:
                        for obj in matches:
                            queue_object(
                                obj, d_n + (edge.weight - obj.position.offset)
                            )

            if guard is not None:
                guard.count(stats.edges_accessed - tests_charged, pruned)
                tests_charged, pruned = stats.edges_accessed, 0
            if obj_heap:
                yield from emit_upto(float("inf"))
        finally:
            if guard is not None:
                guard.count(stats.edges_accessed - tests_charged, pruned)
            if tracing:
                rounds.flush(len(node_heap))

    def run_to_completion(self) -> List[ResultItem]:
        """Materialise the whole stream (plain SK search)."""
        return list(self.run())
