"""Network distance computation (paper §2.1, Equation 1).

Distances are the cost of the least costly path.  All traversals go
through an *adjacency provider* — either the in-memory
:class:`~repro.network.graph.RoadNetwork` (uncharged; builders, tests,
the default pairwise path) or the disk-resident
:class:`~repro.network.ccam.CCAMStore` (every adjacency access charged
to the I/O model, as in the paper's experiments).  With nothing to
charge, a single-source search need not be a Python loop:
:func:`single_source_rows` runs it in C over the network's CSR
snapshot and returns the same labels.
"""

from __future__ import annotations

import heapq
import math
import threading
import time
from collections import OrderedDict
from typing import (
    Dict, Iterable, List, Optional, Protocol, Sequence, Tuple, Union,
)

import numpy as np

from ..obs.tracing import NULL_TRACER
from .graph import NetworkPosition, RoadNetwork

__all__ = [
    "AdjacencyProvider",
    "DistanceBackend",
    "BackendCounters",
    "DISTANCE_BACKENDS",
    "PAIRWISE_CUTOFF_FACTOR",
    "seed_distances",
    "seeded_distances",
    "node_source_distances",
    "single_source_distances",
    "single_source_rows",
    "position_distance_from_node_map",
    "network_distance",
    "DistanceCache",
    "PairwiseDistanceComputer",
]

INF = math.inf

#: Backend names accepted wherever a distance backend is selected
#: (``Database``, the CLI's ``--distance-backend``).  ``csgraph`` is
#: the default: one bounded Dijkstra per source, run in C over the
#: in-memory network (:func:`single_source_rows`), nothing charged to
#: the I/O model and nothing to build; ``dijkstra`` is the same search
#: as a Python loop through the CCAM pages — the paper's cost model,
#: every settled node a charged page access; ``hub`` is the 2-hop
#: hub-label oracle (:mod:`repro.network.hub_labels`), built on a
#: Contraction-Hierarchies node ordering (:mod:`repro.network.ch`).
DISTANCE_BACKENDS = ("csgraph", "dijkstra", "hub")

#: A diversified query's pairwise cutoff, in units of its ``delta_max``:
#: two candidates within ``delta_max`` of the query are at most
#: ``2 · delta_max`` apart, and the 0.1 % slack keeps a pair at exactly
#: that bound from rounding to ``inf``.
PAIRWISE_CUTOFF_FACTOR = 2.0 * 1.001


class AdjacencyProvider(Protocol):
    """Anything that can enumerate ``(edge_id, other_node, weight)``."""

    def neighbors(self, node_id: int) -> Sequence[Tuple[int, int, float]]:
        ...


class BackendCounters:
    """Per-owner counters a :class:`DistanceBackend` increments.

    A backend oracle (e.g. one Contraction Hierarchy) is shared by
    every query of a database, so it cannot keep per-query counters
    itself.  Callers own one of these and pass it into each call; the
    owner's numbers are then true per-query deltas even when other
    threads hammer the same oracle.
    """

    __slots__ = ("queries", "settled_nodes", "bucket_hits", "matrix_cells")

    def __init__(self) -> None:
        self.queries = 0
        self.settled_nodes = 0
        self.bucket_hits = 0
        self.matrix_cells = 0

    def snapshot(self) -> Tuple[int, int, int, int]:
        return (
            self.queries, self.settled_nodes,
            self.bucket_hits, self.matrix_cells,
        )


class DistanceBackend(Protocol):
    """A pluggable exact network-distance oracle.

    Implementations answer the same questions the bounded-Dijkstra
    path answers — exact ``δ(a, b)`` between network positions (with
    the paper's same-edge rule and a cutoff that maps to ``inf``) and
    the full pairwise matrix over a candidate set — but may do so with
    entirely different machinery (see
    :class:`repro.network.ch.ContractionHierarchy`).  ``counters`` is
    an optional :class:`BackendCounters` the call charges its work to.
    """

    name: str

    def position_distance(
        self,
        a: NetworkPosition,
        b: NetworkPosition,
        cutoff: float = INF,
        counters: Optional[BackendCounters] = None,
    ) -> float:
        ...

    def position_matrix(
        self,
        positions: Sequence[NetworkPosition],
        cutoff: float = INF,
        counters: Optional[BackendCounters] = None,
    ) -> Dict[Tuple[int, int], float]:
        ...


def seed_distances(
    network: RoadNetwork, pos: NetworkPosition
) -> Dict[int, float]:
    """Distances from a network position to its edge's two end-nodes.

    On a self-loop edge (``n1 == n2``) both ways around the loop reach
    the same node; the distance is the cheaper of the two, not whichever
    dict entry happened to be written last.
    """
    edge = network.edge(pos.edge_id)
    if edge.n1 == edge.n2:
        return {edge.n1: min(pos.offset, edge.weight - pos.offset)}
    return {edge.n1: pos.offset, edge.n2: edge.weight - pos.offset}


def seeded_distances(
    provider: AdjacencyProvider,
    seeds: Dict[int, float],
    cutoff: float = INF,
    *,
    ignore: Optional[int] = None,
    targets: Optional[Iterable[int]] = None,
    max_settled: Optional[int] = None,
) -> Dict[int, float]:
    """The shared traversal seam: bounded Dijkstra from (node → cost)
    seeds.

    Only settled nodes appear in the result, seeds above ``cutoff``
    never enter, ``ignore`` skips one node, ``targets`` stops once all
    settled, ``max_settled`` caps the search.
    """
    dist: Dict[int, float] = {}
    best: Dict[int, float] = {}
    for node_id, d in seeds.items():
        if d <= cutoff and d < best.get(node_id, INF):
            best[node_id] = d
    heap: list = [(d, node_id) for node_id, d in best.items()]
    heapq.heapify(heap)
    remaining = set(targets) if targets is not None else None
    while heap:
        d, node = heapq.heappop(heap)
        if node in dist:
            continue
        dist[node] = d
        if remaining is not None:
            remaining.discard(node)
            if not remaining:
                break
        if max_settled is not None and len(dist) >= max_settled:
            break
        for _edge_id, other, weight in provider.neighbors(node):
            if other == ignore or other in dist:
                continue
            nd = d + weight
            if nd <= cutoff and nd < best.get(other, INF):
                best[other] = nd
                heapq.heappush(heap, (nd, other))
    return dist


def node_source_distances(
    provider: AdjacencyProvider,
    source_node: int,
    cutoff: float = INF,
    *,
    ignore: Optional[int] = None,
    targets: Optional[Iterable[int]] = None,
    max_settled: Optional[int] = None,
) -> Dict[int, float]:
    """Bounded Dijkstra from a *node* through an adjacency provider.

    A thin wrapper over the shared seam (:func:`seeded_distances`):
    Contraction-Hierarchies preprocessing runs it as a *witness search*
    (``ignore`` skips the node being contracted, ``targets`` stops once
    every target settled, ``max_settled`` caps the search).
    """
    return seeded_distances(
        provider, {source_node: 0.0}, cutoff,
        ignore=ignore, targets=targets, max_settled=max_settled,
    )


def single_source_distances(
    provider: AdjacencyProvider,
    network: RoadNetwork,
    source: NetworkPosition,
    cutoff: float = INF,
) -> Dict[int, float]:
    """Bounded Dijkstra from a network position.

    Returns the distance of every node within ``cutoff`` of ``source``.
    Seeds the edge's two end-nodes and funnels through the shared seam,
    so the same call works on a ``RoadNetwork`` or a ``CCAMStore``.
    """
    return seeded_distances(
        provider, seed_distances(network, source), cutoff
    )


def single_source_rows(
    network: RoadNetwork,
    sources: Sequence[NetworkPosition],
    cutoff: float = INF,
) -> "np.ndarray":
    """:func:`single_source_distances` over ``network`` for several
    sources in one C call (``scipy.sparse.csgraph.dijkstra``).

    Returns a ``len(sources) × N`` array over the rows of
    ``network.csr_snapshot()``: cell ``(s, r)`` is the distance from
    ``sources[s]`` to node ``node_ids[r]``, ``inf`` where the Python
    loop's dict has no entry (beyond ``cutoff``, or unreachable).

    Each source becomes one extra node with two directed edges, to its
    edge's end-nodes at ``offset`` and ``weight - offset`` — the seeds
    of :func:`seed_distances`.  A label is then the least left-to-right
    float sum over the paths from that node in either implementation
    (float addition is monotone, so label-setting finds that minimum
    whatever the tie order), which is why the cells equal the dict's
    values exactly, not merely within rounding.
    """
    # Imported on first use, and nothing before the first pairwise
    # distance imports scipy at all (a tier-1 test checks that):
    # ``scipy.sparse`` + ``csgraph`` are 163 modules, ≈ 0.23 s and
    # ≈ 24 MiB resident, which a process that only runs boolean SK
    # queries should not carry.
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra

    csr = network.csr_snapshot()
    n, count = csr.num_nodes, len(sources)
    heads = np.empty(2 * count, dtype=np.int32)
    costs = np.empty(2 * count)
    for s, pos in enumerate(sources):
        heads[2 * s:2 * s + 2] = csr.edge_rows[pos.edge_id]
        costs[2 * s] = pos.offset
        costs[2 * s + 1] = network.edge(pos.edge_id).weight - pos.offset
    if count and costs.min() < 0.0:
        # An offset a rounding step past its edge's weight (a rescale
        # can leave one) makes a negative seed, which scipy warns
        # about; the Python loop takes it in its stride.
        rows = np.full((count, n), INF)
        for row, pos in zip(rows, sources):
            for node_id, d in single_source_distances(
                network, network, pos, cutoff
            ).items():
                row[csr.index_of[node_id]] = d
        return rows
    indptr = np.concatenate((
        csr.indptr,
        csr.indptr[-1] + np.arange(2, 2 * count + 1, 2, dtype=np.int32),
    ))
    graph = csr_matrix(
        (
            np.concatenate((csr.weights, costs)),
            np.concatenate((csr.indices, heads)),
            indptr,
        ),
        shape=(n + count, n + count),
    )
    return csgraph_dijkstra(
        graph, directed=True, indices=np.arange(n, n + count), limit=cutoff
    )[:, :n]


def position_distance_from_node_map(
    network: RoadNetwork,
    node_dist: Dict[int, float],
    target: NetworkPosition,
    source: Optional[NetworkPosition] = None,
) -> float:
    """Evaluate Equation 1 given a map of node distances.

    ``δ(q, p) = min(δ(q, n1) + w(n1, p), δ(q, n2) + w(n2, p))`` for a
    target ``p`` on edge ``(n1, n2)``.  When ``source`` lies on the same
    edge the along-edge distance ``w(q, p)`` is used (paper's same-edge
    rule) if it beats the endpoint paths.
    """
    edge = network.edge(target.edge_id)
    best = INF
    d1 = node_dist.get(edge.n1)
    if d1 is not None:
        best = min(best, d1 + target.offset)
    d2 = node_dist.get(edge.n2)
    if d2 is not None:
        best = min(best, d2 + (edge.weight - target.offset))
    if source is not None and source.edge_id == target.edge_id:
        best = min(best, abs(source.offset - target.offset))
    return best


def network_distance(
    provider: AdjacencyProvider,
    network: RoadNetwork,
    a: NetworkPosition,
    b: NetworkPosition,
    cutoff: float = INF,
) -> float:
    """Network distance ``δ(a, b)``; ``inf`` when beyond ``cutoff``.

    Runs a Dijkstra from ``a`` with early termination at ``b``'s edge
    end-nodes.  On a shared edge the along-edge distance short-circuits
    it (paper: ``δ(q, p) = w(q, p)`` if both lie on one edge).
    """
    if a.edge_id == b.edge_id:
        return abs(a.offset - b.offset)
    edge_b = network.edge(b.edge_id)
    targets = {edge_b.n1, edge_b.n2}
    target_dist: Dict[int, float] = {}

    dist: Dict[int, float] = {}
    best_known: Dict[int, float] = {}
    heap: list = []
    for node_id, d in seed_distances(network, a).items():
        if d <= cutoff and d < best_known.get(node_id, INF):
            best_known[node_id] = d
    for node_id, d in best_known.items():
        heapq.heappush(heap, (d, node_id))
    best = INF
    while heap:
        d, node_id = heapq.heappop(heap)
        if node_id in dist:
            continue
        if d > cutoff or d >= best:
            break
        dist[node_id] = d
        if node_id in targets:
            target_dist[node_id] = d
            via = d + (
                b.offset if node_id == edge_b.n1 else edge_b.weight - b.offset
            )
            best = min(best, via)
            if len(target_dist) == len(targets):
                break
        for _edge_id, other, weight in provider.neighbors(node_id):
            nd = d + weight
            if (
                nd <= cutoff and nd < best and other not in dist
                and nd < best_known.get(other, INF)
            ):
                best_known[other] = nd
                heapq.heappush(heap, (nd, other))
    return best if best <= cutoff else INF


#: Cache key of one single-source node map: edge, offset, cutoff, and
#: whether the map is a row.  The cutoff is part of the key: a map
#: computed under a smaller cutoff is *truncated* and must never answer
#: for a query with a larger one (it would report ``inf`` for nodes
#: that are actually reachable).  Rows and dicts are read differently,
#: so they never answer for each other either.
CacheKey = Tuple[int, float, float, bool]

#: One source's labels: ``{node_id: distance}`` over the settled nodes
#: (the Python loop), or a dense row over the network's CSR snapshot
#: with ``inf`` in the unsettled cells (:func:`single_source_rows`).
NodeMap = Union[Dict[int, float], "np.ndarray"]


class DistanceCache:
    """Bounded LRU cache of single-source node-distance maps.

    Capacity is counted in *node-map entries* — the total ``len()`` of
    every cached map — because maps from dense regions dwarf maps from
    sparse ones; bounding the map count alone would make memory use
    workload-dependent.  A dict map counts its ``(node, distance)``
    pairs; a dense row (the C path) holds one cell per network node
    whatever its cutoff, and counts as that many.

    ``max_entries=None`` disables the bound (the per-query private
    cache of :class:`PairwiseDistanceComputer`, matching the historic
    behaviour).  A bounded instance can be shared across queries of a
    workload (see :meth:`repro.core.database.Database.use_shared_distance_cache`);
    sharing is safe because keys embed ``(edge_id, offset, cutoff)``,
    so queries with different ``delta_max`` never read each other's
    truncated maps.

    Concurrency contract: one instance may be shared by queries running
    on **multiple threads** (``QueryEngine.execute_many``).  Every
    operation that touches the LRU ``OrderedDict`` or the
    hit/miss/eviction counters runs under one internal lock, so reads
    can never observe a half-applied eviction and counter increments
    are never lost.  Cached node maps themselves are treated as
    immutable once ``put``: callers must never mutate a map obtained
    from :meth:`get`.  ``hits``/``misses``/``evictions`` are *lifetime*
    totals; per-query deltas are counted by each (per-query)
    :class:`PairwiseDistanceComputer`, never by diffing these shared
    counters, so concurrent queries cannot contaminate each other's
    stats.

    **Epoch versioning.**  Edge-weight updates change every node map
    that crosses the updated edge; :meth:`invalidate` drops all cached
    maps and advances the cache's epoch to the database's new
    ``data_version``.  Readers and writers pass the epoch their query
    is *pinned to* (``ExecutionContext.epoch``): a :meth:`get` from an
    epoch older than the cache's is a miss, and a :meth:`put` from an
    older epoch is silently discarded (counted in ``stale_puts``) — an
    in-flight query that computed its map against pre-update weights
    must never repollute the invalidated cache.  Both checks run under
    the same lock as the map access, so a concurrent
    ``invalidate``/``get``/``put`` interleaving can never serve a
    pre-update map to a post-update reader.  ``epoch=None`` (private
    per-query caches; static databases) disables the gating.
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries <= 0:
            raise ValueError("max_entries must be positive or None")
        self.max_entries = max_entries
        self._maps: "OrderedDict[CacheKey, NodeMap]" = OrderedDict()
        self._entries = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Epoch of the cached contents: the ``data_version`` of the
        #: most recent :meth:`invalidate`.  Maps inside are valid for
        #: every epoch >= this value (only invalidation advances it).
        self.epoch = 0
        #: Writes rejected because the writer's epoch pre-dated the
        #: last invalidation.
        self.stale_puts = 0
        #: Times :meth:`invalidate` actually cleared the cache.
        self.invalidations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._maps)

    @property
    def entries(self) -> int:
        """Total node-map entries currently cached."""
        with self._lock:
            return self._entries

    def get(self, *keys: CacheKey, epoch: Optional[int] = None):
        """First cached map among ``keys`` as ``(key, node_map)``.

        Probing several keys (the two endpoints of a symmetric pair)
        counts as *one* lookup: one hit when any key is cached, one
        miss when none is.  A reader pinned to an ``epoch`` older than
        the cache's contents always misses (it must not observe maps
        computed against newer edge weights).
        """
        with self._lock:
            if epoch is not None and epoch < self.epoch:
                self.misses += 1
                return None
            for key in keys:
                node_map = self._maps.get(key)
                if node_map is not None:
                    self._maps.move_to_end(key)
                    self.hits += 1
                    return key, node_map
            self.misses += 1
            return None

    def put(
        self,
        key: CacheKey,
        node_map: NodeMap,
        epoch: Optional[int] = None,
    ) -> int:
        """Insert a map; returns how many LRU maps were evicted.

        A writer pinned to an ``epoch`` older than the cache's is
        rejected (counted in ``stale_puts``): its map was computed
        against edge weights an :meth:`invalidate` has since retired.
        """
        evicted_count = 0
        with self._lock:
            if epoch is not None and epoch < self.epoch:
                self.stale_puts += 1
                return 0
            old = self._maps.pop(key, None)
            if old is not None:
                self._entries -= len(old)
            self._maps[key] = node_map
            self._entries += len(node_map)
            if self.max_entries is not None:
                # Evict LRU maps until within budget; the newly inserted
                # map always stays (an oversized map would otherwise make
                # every future put a no-op).
                while self._entries > self.max_entries and len(self._maps) > 1:
                    _, evicted = self._maps.popitem(last=False)
                    self._entries -= len(evicted)
                    self.evictions += 1
                    evicted_count += 1
        return evicted_count

    def clear(self) -> None:
        """Drop every cached map; counters keep their lifetime values."""
        with self._lock:
            self._maps.clear()
            self._entries = 0

    def invalidate(self, epoch: int) -> bool:
        """Drop everything and advance the cache to ``epoch``.

        Called when a distance-changing update commits.  Monotonic: an
        ``epoch`` at or below the cache's current one is a no-op (a
        late-arriving invalidation for an already-superseded version
        must not resurrect staleness).  Returns whether the cache was
        actually cleared.
        """
        with self._lock:
            if epoch <= self.epoch:
                return False
            self._maps.clear()
            self._entries = 0
            self.epoch = epoch
            self.invalidations += 1
            return True

    def counters_snapshot(self) -> Tuple[int, int, int]:
        with self._lock:
            return (self.hits, self.misses, self.evictions)

    def stats(self) -> Dict[str, Optional[int]]:
        """A JSON-able view for metric records and reports."""
        with self._lock:
            return {
                "maps": len(self._maps),
                "entries": self._entries,
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "epoch": self.epoch,
                "stale_puts": self.stale_puts,
                "invalidations": self.invalidations,
            }


class PairwiseDistanceComputer:
    """Evaluates pairwise distances through a :class:`DistanceCache`.

    Diversified search needs many ``δ(o_i, o_j)`` evaluations over the
    same small set of candidates (paper §4.1 calls this "cost
    expensive").  Each distinct source runs one bounded Dijkstra whose
    node map is cached; subsequent pairs against that source are O(1).
    Distances are symmetric, so a pair is answered from *either*
    endpoint's cached map before any new Dijkstra runs.

    When ``provider`` is the in-memory :class:`RoadNetwork` there is no
    page access to charge, so a source's map is a row filled in C
    (:func:`single_source_rows`) instead of a dict filled by the Python
    loop — the same labels — and :meth:`pairwise_matrix` runs a whole
    pool's sources in one call.  Through a ``CCAMStore`` every settled
    node stays a charged page access, as in the paper's experiments.

    ``cache`` may be shared across computers (and therefore queries);
    when omitted a private unbounded cache reproduces the historic
    per-query behaviour.  ``dijkstra_runs``/``dijkstra_seconds`` and
    the ``cache_hits``/``cache_misses``/``cache_evictions`` counters
    are lifetime totals of *this computer* — counted locally, not read
    off the (possibly shared) cache, so a computer owned by one query
    reports that query's deltas even while other threads hammer the
    same cache.  Callers that share a computer across queries must
    snapshot and report deltas.  A computer itself is **not**
    thread-safe; create one per query.

    ``backend`` plugs in a :class:`DistanceBackend` oracle (e.g. a
    Contraction Hierarchy): every cross-edge pair is then answered by
    the oracle instead of the cached-Dijkstra path, with the oracle's
    work charged to this computer's own :class:`BackendCounters` and
    ``backend_seconds``.  :meth:`prefetch` bulk-resolves a candidate
    set through the oracle's many-to-many kernel; prefetched pairs are
    served as cache hits.  The oracle itself may be shared across
    queries and threads (it is immutable after construction).
    """

    def __init__(
        self,
        provider: AdjacencyProvider,
        network: RoadNetwork,
        cutoff: float = INF,
        cache: Optional[DistanceCache] = None,
        tracer=NULL_TRACER,
        backend: Optional[DistanceBackend] = None,
        epoch: Optional[int] = None,
    ) -> None:
        self._provider = provider
        self._network = network
        #: Whether sources run in C and their maps are rows.
        self._in_memory = isinstance(provider, RoadNetwork)
        self._cutoff = cutoff
        self._cache = cache if cache is not None else DistanceCache()
        self._backend = backend
        #: Data epoch this computer's query is pinned to; gates every
        #: shared-cache access (see ``DistanceCache`` epoch versioning).
        #: ``None`` on static databases and private caches.
        self._epoch = epoch
        #: Pair distances bulk-resolved by :meth:`prefetch`, keyed by
        #: the two positions' ``(edge_id, offset)`` pairs, sorted.
        self._pair_cache: Dict[Tuple, float] = {}
        #: Tracer for cache-hit events and per-Dijkstra spans; the
        #: disabled NULL_TRACER costs one attribute read per distance.
        self.tracer = tracer
        self.dijkstra_runs = 0
        self.dijkstra_seconds = 0.0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0
        #: Oracle-side work of *this* computer (per-query deltas even
        #: on a shared oracle); zero on the Dijkstra backend.
        self.backend_counters = BackendCounters()
        self.backend_seconds = 0.0

    @property
    def cache(self) -> DistanceCache:
        return self._cache

    @property
    def cutoff(self) -> float:
        return self._cutoff

    @property
    def backend(self) -> Optional[DistanceBackend]:
        return self._backend

    @property
    def backend_name(self) -> str:
        """The distance backend answering this computer's pairs."""
        if self._backend is not None:
            return self._backend.name
        return "csgraph" if self._in_memory else "dijkstra"

    @property
    def pairwise_seconds(self) -> float:
        """Total pairwise-evaluation seconds, whichever backend ran."""
        return self.dijkstra_seconds + self.backend_seconds

    def _key(self, pos: NetworkPosition) -> CacheKey:
        return (pos.edge_id, pos.offset, self._cutoff, self._in_memory)

    def _run_dijkstras(
        self, sources: Sequence[NetworkPosition]
    ) -> List[NodeMap]:
        """One bounded Dijkstra per source; caches and returns the maps."""
        start = time.perf_counter()
        if self._in_memory:
            # Each row is copied out of the call's block, so evicting
            # it from a shared cache frees what the cache counted.
            node_maps = [
                row.copy() for row in
                single_source_rows(self._provider, sources, self._cutoff)
            ]
        else:
            node_maps = [
                single_source_distances(
                    self._provider, self._network, pos, cutoff=self._cutoff
                )
                for pos in sources
            ]
        elapsed = time.perf_counter() - start
        self.dijkstra_seconds += elapsed
        self.dijkstra_runs += len(sources)
        if self.tracer.enabled:
            self.tracer.add_span(
                "pairwise.dijkstra", elapsed, start=start,
                source_edge=sources[0].edge_id, sources=len(sources),
                map_nodes=sum(
                    int(np.isfinite(m).sum()) if self._in_memory else len(m)
                    for m in node_maps
                ),
                cutoff=self._cutoff,
            )
        for pos, node_map in zip(sources, node_maps):
            self.cache_evictions += self._cache.put(
                self._key(pos), node_map, epoch=self._epoch
            )
        return node_maps

    def _map_distance(
        self, node_map: NodeMap, target: NetworkPosition
    ) -> float:
        """Equation 1 from one source's map to a target on another edge."""
        if not self._in_memory:
            return position_distance_from_node_map(
                self._network, node_map, target
            )
        edge = self._network.edge(target.edge_id)
        row_of = self._provider.csr_snapshot().index_of
        return min(
            node_map.item(row_of[edge.n1]) + target.offset,
            node_map.item(row_of[edge.n2]) + (edge.weight - target.offset),
        )

    def _pair_key(self, a: NetworkPosition, b: NetworkPosition) -> Tuple:
        ka, kb = (a.edge_id, a.offset), (b.edge_id, b.offset)
        return (ka, kb) if ka <= kb else (kb, ka)

    def _backend_distance(self, a: NetworkPosition, b: NetworkPosition) -> float:
        # A miss is only charged when the prefetched pair cache was
        # actually probed; without a prefetch there is no cache to miss,
        # and charging one per point query deflates the hit-rate SLO.
        if self._pair_cache:
            d = self._pair_cache.get(self._pair_key(a, b))
            if d is not None:
                self.cache_hits += 1
                return d
            self.cache_misses += 1
        before_settled = self.backend_counters.settled_nodes
        start = time.perf_counter()
        d = self._backend.position_distance(
            a, b, cutoff=self._cutoff, counters=self.backend_counters
        )
        elapsed = time.perf_counter() - start
        self.backend_seconds += elapsed
        if self.tracer.enabled:
            # Span named after the backend ("hub.query"), so EXPLAIN
            # narrates the oracle with its own vocabulary.
            self.tracer.add_span(
                f"{self._backend.name}.query", elapsed, start=start,
                source_edge=a.edge_id, target_edge=b.edge_id,
                cutoff=self._cutoff,
                entries_scanned=(
                    self.backend_counters.settled_nodes - before_settled
                ),
            )
        return d

    def prefetch(self, positions: Iterable[NetworkPosition]) -> int:
        """Bulk-resolve all pairwise distances of ``positions``.

        Runs the backend oracle's bucket-based many-to-many kernel once
        and stores the matrix; later :meth:`distance` calls over these
        positions are O(1) lookups (counted as cache hits).  A no-op
        returning 0 on the Dijkstra backend, whose per-source node-map
        cache already amortises the matrix.
        """
        if self._backend is None:
            return 0
        pos_list = list(positions)
        if len(pos_list) < 2:
            return 0
        before_settled = self.backend_counters.settled_nodes
        before_hits = self.backend_counters.bucket_hits
        start = time.perf_counter()
        matrix = self._backend.position_matrix(
            pos_list, cutoff=self._cutoff, counters=self.backend_counters
        )
        for (i, j), d in matrix.items():
            self._pair_cache[self._pair_key(pos_list[i], pos_list[j])] = d
        elapsed = time.perf_counter() - start
        self.backend_seconds += elapsed
        if self.tracer.enabled:
            self.tracer.add_span(
                f"{self._backend.name}.many_to_many", elapsed, start=start,
                positions=len(pos_list), pairs=len(matrix),
                cutoff=self._cutoff,
                entries_scanned=(
                    self.backend_counters.settled_nodes - before_settled
                ),
                kernel_hits=(
                    self.backend_counters.bucket_hits - before_hits
                ),
            )
        return len(matrix)

    def pairwise_matrix(self, positions: Iterable[NetworkPosition]):
        """The full symmetric pairwise matrix as a numpy array.

        Served with no per-pair Python — the array greedy consumes the
        result as-is — from the backend's array kernel (the hub-label
        join) or, on the in-memory network with no backend, from the
        sources' rows (:meth:`_matrix_from_rows`).  Returns ``None``
        otherwise (CH, Dijkstra through CCAM); callers fall back to
        :meth:`pairwise`.
        """
        array_kernel = getattr(self._backend, "position_matrix_array", None)
        if array_kernel is None:
            if self._backend is None and self._in_memory:
                return self._matrix_from_rows(list(positions))
            return None
        pos_list = list(positions)
        if len(pos_list) < 2:
            return array_kernel(pos_list)
        before_settled = self.backend_counters.settled_nodes
        before_hits = self.backend_counters.bucket_hits
        start = time.perf_counter()
        matrix = array_kernel(
            pos_list, cutoff=self._cutoff, counters=self.backend_counters
        )
        elapsed = time.perf_counter() - start
        self.backend_seconds += elapsed
        if self.tracer.enabled:
            self.tracer.add_span(
                f"{self._backend.name}.many_to_many", elapsed, start=start,
                positions=len(pos_list),
                pairs=len(pos_list) * (len(pos_list) - 1) // 2,
                cutoff=self._cutoff,
                entries_scanned=(
                    self.backend_counters.settled_nodes - before_settled
                ),
                kernel_hits=(
                    self.backend_counters.bucket_hits - before_hits
                ),
            )
        return matrix

    def _matrix_from_rows(
        self, pos_list: List[NetworkPosition]
    ) -> "np.ndarray":
        """What :meth:`pairwise` answers, as a matrix, cell for cell.

        :meth:`pairwise` walks the pairs ``(i, j)``, ``i < j``, in
        lexicographic order; each cross-edge pair is read from ``i``'s
        map if cached, else from ``j``'s if cached, else ``i``'s
        Dijkstra runs.  On a fresh cache that is every position with a
        later one on another edge.  Here the walk only *decides* — which
        sources run, which cells borrow ``j``'s map — then the sources
        run in one C call and row ``i`` fills cells ``(i, i+1:)`` in
        one numpy expression (Equation 1, the ``> cutoff → inf`` clamp
        and the same-edge rule included).  Counters advance as the
        per-pair path's would: one miss per run, one hit per other
        cross-edge pair.
        """
        n = len(pos_list)
        matrix = np.zeros((n, n))
        if n < 2:
            return matrix
        keys = [self._key(pos) for pos in pos_list]
        edge_ids = np.fromiter((pos.edge_id for pos in pos_list), np.int64, n)
        offsets = np.fromiter((pos.offset for pos in pos_list), np.float64, n)
        same_edge = edge_ids[:, None] == edge_ids[None, :]

        maps: Dict[CacheKey, NodeMap] = {}
        for key in dict.fromkeys(keys):
            found = self._cache.get(key, epoch=self._epoch)
            if found is not None:
                maps[key] = found[1]
        known = set(maps)
        runs: List[int] = []
        borrowed: List[Tuple[int, int]] = []
        for i in range(n - 1):
            for j in np.flatnonzero(~same_edge[i, i + 1:]) + (i + 1):
                if keys[i] in known:
                    break
                if keys[j] in known:
                    borrowed.append((i, int(j)))
                    continue
                known.add(keys[i])
                runs.append(i)
                break
        if runs:
            for i, node_map in zip(
                runs, self._run_dijkstras([pos_list[i] for i in runs])
            ):
                maps[keys[i]] = node_map
        cross_pairs = (n * n - int(same_edge.sum())) // 2
        self.cache_misses += len(runs)
        self.cache_hits += cross_pairs - len(runs)

        csr = self._provider.csr_snapshot()
        heads = csr.edge_rows[edge_ids]
        last_leg = csr.weights[csr.edge_cells[edge_ids, 0]] - offsets
        owners = [i for i in range(n - 1) if keys[i] in maps]
        if owners:
            block = np.stack([maps[keys[i]] for i in owners])
            cells = np.minimum(
                block[:, heads[:, 0]] + offsets,
                block[:, heads[:, 1]] + last_leg,
            )
            cells[cells > self._cutoff] = INF
            matrix[owners] = cells
        for i, j in borrowed:
            d = self._map_distance(maps[keys[j]], pos_list[i])
            matrix[i, j] = d if d <= self._cutoff else INF
        along_edge = np.abs(offsets[:, None] - offsets[None, :])
        matrix[same_edge] = along_edge[same_edge]
        matrix = np.triu(matrix, 1)
        return matrix + matrix.T

    def _all_pairs_prefetched(self, pos_list: List[NetworkPosition]) -> bool:
        """True when a prior :meth:`prefetch` already resolved every
        cross-edge pair of ``pos_list``, so the many-to-many kernel
        need not run again (the SEQ path prefetches the candidate pool
        once and then asks for the same matrix during greedy)."""
        if self._backend is None or not self._pair_cache:
            return False
        cache = self._pair_cache
        for i, a in enumerate(pos_list):
            for b in pos_list[i + 1 :]:
                if a.edge_id == b.edge_id:
                    continue
                if self._pair_key(a, b) not in cache:
                    return False
        return True

    def distance(self, a: NetworkPosition, b: NetworkPosition) -> float:
        """``δ(a, b)``, or ``inf`` when it exceeds the cutoff."""
        if a.edge_id == b.edge_id:
            return abs(a.offset - b.offset)
        if self._backend is not None:
            # Clamp exactly like the Dijkstra path below: a caller must
            # see the same inf-beyond-cutoff contract on every backend.
            d = self._backend_distance(a, b)
            return d if d <= self._cutoff else INF
        key_a = self._key(a)
        found = self._cache.get(key_a, self._key(b), epoch=self._epoch)
        if found is not None:
            self.cache_hits += 1
            if self.tracer.enabled:
                self.tracer.event(
                    "pairwise.cache_hit", source_edge=found[0][0]
                )
        else:
            self.cache_misses += 1
        if found is None:
            node_map, target = self._run_dijkstras([a])[0], b
        elif found[0] == key_a:
            node_map, target = found[1], b
        else:
            node_map, target = found[1], a
        d = self._map_distance(node_map, target)
        return d if d <= self._cutoff else INF

    def pairwise(
        self, positions: Iterable[NetworkPosition]
    ) -> Dict[Tuple[int, int], float]:
        """All pairwise distances among ``positions`` (by index).

        On a backend oracle the whole matrix is resolved through the
        many-to-many kernel first, so each pair costs one lookup.
        """
        pos_list = list(positions)
        if not self._all_pairs_prefetched(pos_list):
            self.prefetch(pos_list)
        out: Dict[Tuple[int, int], float] = {}
        for i in range(len(pos_list)):
            for j in range(i + 1, len(pos_list)):
                out[(i, j)] = self.distance(pos_list[i], pos_list[j])
        return out
