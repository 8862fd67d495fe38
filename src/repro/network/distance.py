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
import time
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
#: that bound from rounding to ``inf``.  The cutoff is the *answer
#: clamp* (a distance beyond it is ``inf``).  The in-memory search from
#: a pool's sources stops sooner, at the *limit* ``reach + cutoff / 2``,
#: ``reach`` being the sources' largest query distance: through the
#: query, no pool pair ``(s, t)`` is further apart than
#: ``δ(q, s) + δ(q, t) ≤ reach + delta_max``.  That needs each pool
#: item's distance to be its exact network distance from the query, or
#: an overestimate (what INE emits).
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
    ``cutoff`` here is the search radius: a diversified query's
    computer passes its limit, not its answer clamp (see
    :data:`PAIRWISE_CUTOFF_FACTOR`).  Every label at or below it is the
    same float whatever the radius, because with positive weights the
    path to such a node passes only nodes with smaller labels.

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
    # ``scipy.sparse`` + ``csgraph`` are ≈ 0.23 s and ≈ 25 MiB resident
    # on top of ``import repro`` (33 MiB over bare numpy), which a
    # process that only runs boolean SK queries should not carry.
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


#: One source's labels: ``{node_id: distance}`` over the settled nodes
#: (the Python loop), or a dense row over the network's CSR snapshot
#: with ``inf`` in the unsettled cells (:func:`single_source_rows`).
NodeMap = Union[Dict[int, float], "np.ndarray"]


class PairwiseDistanceComputer:
    """Evaluates the pairwise distances of one diversified query.

    Diversified search needs many ``δ(o_i, o_j)`` evaluations over the
    same small set of candidates (paper §4.1 calls this "cost
    expensive").  Each distinct source runs one bounded Dijkstra whose
    node map the computer keeps; subsequent pairs against that source
    are O(1).  Distances are symmetric, so a pair is answered from
    *either* endpoint's kept map before any new Dijkstra runs.

    When ``provider`` is the in-memory :class:`RoadNetwork` there is no
    page access to charge, so a source's map is a row filled in C
    (:func:`single_source_rows`) instead of a dict filled by the Python
    loop — the same labels — and :meth:`pairwise_matrix` runs a whole
    pool's sources in one call.  Through a ``CCAMStore`` every settled
    node stays a charged page access, as in the paper's experiments.

    ``cutoff`` is the answer clamp.  :meth:`pairwise_matrix` and
    :meth:`distance` also take ``reach``, an upper bound on the query
    distances of the sources they may run; the C search then stops at
    the limit ``min(cutoff, reach + cutoff / 2)`` instead of ``cutoff``
    (:data:`PAIRWISE_CUTOFF_FACTOR` says why no pool pair lies beyond
    it).  The rows are then exact for pairs within the query's pool
    only, so a computer given ``reach`` answers that pool's pairs and
    nothing else.  Without ``reach`` the search runs to ``cutoff``.

    A computer lives and dies with its query
    (:meth:`~repro.core.database.Database.pairwise_computer` builds one
    per query), so its maps never outlive the edge weights they were
    computed against, and ``dijkstra_runs`` / ``dijkstra_seconds`` and
    the ``cache_hits`` / ``cache_misses`` counters (lookups of the kept
    maps) are that query's.  A computer is **not** thread-safe.

    ``backend`` plugs in a :class:`DistanceBackend` oracle (e.g. hub
    labels): every cross-edge pair is then answered by the oracle
    instead of the Dijkstra path, with the oracle's work charged to
    this computer's own :class:`BackendCounters` and
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
        tracer=NULL_TRACER,
        backend: Optional[DistanceBackend] = None,
    ) -> None:
        self._provider = provider
        self._network = network
        #: Whether sources run in C and their maps are rows.
        self._in_memory = isinstance(provider, RoadNetwork)
        self._cutoff = cutoff
        self._backend = backend
        #: Each source's node map, keyed by its ``(edge_id, offset)``:
        #: cutoff and provider are fixed per computer, and a row cut at
        #: any call's limit is exact on the query's pool pairs, so
        #: nothing else tells two maps apart.
        self._maps: Dict[Tuple[int, float], NodeMap] = {}
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
        #: Oracle-side work of *this* computer (per-query counts even
        #: on a shared oracle); zero on the Dijkstra backend.
        self.backend_counters = BackendCounters()
        self.backend_seconds = 0.0

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

    @staticmethod
    def _key(pos: NetworkPosition) -> Tuple[int, float]:
        return (pos.edge_id, pos.offset)

    def _run_dijkstras(
        self, sources: Sequence[NetworkPosition],
        reach: Optional[float] = None,
    ) -> List[NodeMap]:
        """One bounded Dijkstra per source; keeps and returns the maps.

        In memory the search stops at ``reach + cutoff / 2`` when the
        caller bounds the sources' query distances by ``reach``; through
        CCAM it runs to ``cutoff``, every settled node a charged page.
        """
        start = time.perf_counter()
        limit = self._cutoff
        if self._in_memory:
            if reach is not None:
                limit = min(limit, reach + self._cutoff / 2)
            node_maps = list(
                single_source_rows(self._provider, sources, limit)
            )
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
                cutoff=self._cutoff, limit=limit,
            )
        for pos, node_map in zip(sources, node_maps):
            self._maps[self._key(pos)] = node_map
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
        returning 0 on the Dijkstra backend, whose kept per-source node
        maps already amortise the matrix.
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

    def pairwise_matrix(
        self, positions: Iterable[NetworkPosition],
        reach: Optional[float] = None,
    ):
        """The full symmetric pairwise matrix as a numpy array.

        Served with no per-pair Python — the array greedy consumes the
        result as-is — from the backend's array kernel (the hub-label
        join) or, on the in-memory network with no backend, from the
        sources' rows (:meth:`_matrix_from_rows`).  Returns ``None``
        otherwise (CH, Dijkstra through CCAM); callers fall back to
        :meth:`pairwise`.  ``reach`` bounds the positions' query
        distances and so the sources' search (class docstring).
        """
        array_kernel = getattr(self._backend, "position_matrix_array", None)
        if array_kernel is None:
            if self._backend is None and self._in_memory:
                return self._matrix_from_rows(list(positions), reach)
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
        self, pos_list: List[NetworkPosition], reach: Optional[float]
    ) -> "np.ndarray":
        """What :meth:`pairwise` answers, as a matrix, cell for cell.

        :meth:`pairwise` walks the pairs ``(i, j)``, ``i < j``, in
        lexicographic order; each cross-edge pair is read from ``i``'s
        map if kept, else from ``j``'s if kept, else ``i``'s Dijkstra
        runs.  On a fresh computer that is every position with a later
        one on another edge.  Here the walk only *decides* — which
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

        maps = self._maps
        known = {key for key in keys if key in maps}
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
            self._run_dijkstras([pos_list[i] for i in runs], reach)
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

    def distance(
        self, a: NetworkPosition, b: NetworkPosition,
        reach: Optional[float] = None,
    ) -> float:
        """``δ(a, b)``, or ``inf`` when it exceeds the cutoff.

        ``reach`` bounds ``a``'s query distance, for the search from
        ``a`` should neither endpoint's map be kept yet.
        """
        if a.edge_id == b.edge_id:
            return abs(a.offset - b.offset)
        if self._backend is not None:
            # Clamp exactly like the Dijkstra path below: a caller must
            # see the same inf-beyond-cutoff contract on every backend.
            d = self._backend_distance(a, b)
            return d if d <= self._cutoff else INF
        # One lookup, hit or miss, whichever endpoint's map answers it.
        maps = self._maps
        node_map, source, target = maps.get(self._key(a)), a, b
        if node_map is None:
            node_map, source, target = maps.get(self._key(b)), b, a
        if node_map is None:
            self.cache_misses += 1
            node_map, target = self._run_dijkstras([a], reach)[0], b
        else:
            self.cache_hits += 1
            if self.tracer.enabled:
                self.tracer.event(
                    "pairwise.cache_hit", source_edge=source.edge_id
                )
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
