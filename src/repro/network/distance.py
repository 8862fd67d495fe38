"""Network distance computation (paper §2.1, Equation 1).

Distances are the cost of the least costly path.  All traversals go
through an *adjacency provider* — either the in-memory
:class:`~repro.network.graph.RoadNetwork` (uncharged; builders, tests,
the default pairwise path) or the disk-resident
:class:`~repro.network.ccam.CCAMStore` (every adjacency access charged
to the I/O model, as in the paper's experiments).  A pairwise search
runs in C either way (:func:`single_source_rows`); through CCAM it is
then charged (:class:`PairwiseDistanceComputer`).
"""

from __future__ import annotations

import heapq
import math
import time
from typing import Dict, Iterable, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from ..obs.tracing import NULL_TRACER
from .graph import NetworkPosition, RoadNetwork

__all__ = [
    "AdjacencyProvider",
    "DistanceBackend",
    "DISTANCE_BACKENDS",
    "PAIRWISE_CUTOFF_FACTOR",
    "seed_distances",
    "seeded_distances",
    "node_source_distances",
    "single_source_distances",
    "single_source_rows",
    "position_distance_from_node_map",
    "PairwiseDistanceComputer",
]

INF = math.inf

#: Backend names accepted wherever a distance backend is selected
#: (``Database``, the CLI's ``--distance-backend``).  ``csgraph`` is
#: the default: one bounded Dijkstra per source, run in C over the
#: in-memory network (:func:`single_source_rows`), nothing charged to
#: the I/O model and nothing to build; ``dijkstra`` is the same C
#: search plus the CCAM page reads of the paper's loop, in its settle
#: order — the paper's cost model, every settled node a charged page
#: access.  The hub-label oracle (:mod:`repro.network.hub_labels`) is
#: no backend a user selects: tests and the benchmark hand it to a
#: computer directly (``backend=``).
DISTANCE_BACKENDS = ("csgraph", "dijkstra")

#: A diversified query's pairwise cutoff, in units of its ``delta_max``:
#: two candidates within ``delta_max`` of the query are at most
#: ``2 · delta_max`` apart, and the 0.1 % slack keeps a pair at exactly
#: that bound from rounding to ``inf``.  The cutoff is the *answer
#: clamp* (a distance beyond it is ``inf``).  An in-memory search stops
#: sooner, at the *radius* its reads may need: through the query, a pair
#: ``(s, t)`` is at most ``δ(q, s) + δ(q, t)`` apart, its *span*.  A
#: closed pool whose largest query distance is ``reach`` searches to
#: ``reach · PAIRWISE_CUTOFF_FACTOR``; a source that later arrivals may
#: read searches far enough for their spans too, at most
#: ``reach + cutoff / 2`` (:class:`PairwiseDistanceComputer`).
#: That needs each pool item's distance to be its exact network distance
#: from the query, or an overestimate (what INE emits).
PAIRWISE_CUTOFF_FACTOR = 2.0 * 1.001


class AdjacencyProvider(Protocol):
    """Anything that can enumerate ``(edge_id, other_node, weight)``."""

    def neighbors(self, node_id: int) -> Sequence[Tuple[int, int, float]]:
        ...


class DistanceBackend(Protocol):
    """A pluggable exact network-distance oracle.

    Implementations answer the same questions the bounded-Dijkstra
    path answers — exact ``δ(a, b)`` between network positions (with
    the paper's same-edge rule and a cutoff that maps to ``inf``) and
    the full pairwise matrix over a candidate set — but may do so with
    entirely different machinery (see
    :class:`repro.network.ch.ContractionHierarchy`).
    """

    name: str

    def position_distance(
        self, a: NetworkPosition, b: NetworkPosition, cutoff: float = INF
    ) -> float:
        ...

    def position_matrix(
        self, positions: Sequence[NetworkPosition], cutoff: float = INF
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
) -> float:
    """Equation 1 given a map of node distances.

    ``δ(q, p) = min(δ(q, n1) + w(n1, p), δ(q, n2) + w(n2, p))`` for a
    target ``p`` on edge ``(n1, n2)``; an end-node missing from the map
    contributes nothing (``inf`` when both are).  The paper's same-edge
    rule is the caller's: a target on the source's own edge is pinned at
    the along-edge distance instead.
    """
    edge = network.edge(target.edge_id)
    best = INF
    d1 = node_dist.get(edge.n1)
    if d1 is not None:
        best = min(best, d1 + target.offset)
    d2 = node_dist.get(edge.n2)
    if d2 is not None:
        best = min(best, d2 + (edge.weight - target.offset))
    return best


class PairwiseDistanceComputer:
    """Evaluates the pairwise distances of one diversified query.

    Diversified search needs many ``δ(o_i, o_j)`` evaluations over the
    same small set of candidates (paper §4.1 calls this "cost
    expensive").  Each distinct source runs one bounded Dijkstra whose
    labels the computer keeps; subsequent pairs against that source
    are O(1).  Distances are symmetric, so a pair is answered from
    *either* endpoint's kept labels before any new Dijkstra runs.

    Every search runs in C (:func:`single_source_rows`), a source's
    labels a row over the CSR snapshot; :meth:`pairwise_matrix` runs
    a pool's sources in one call.  The provider decides only whether
    pages are charged: through a ``CCAMStore``, each settled node's
    adjacency is then read through it in ``(label, node_id)`` order.
    That is the heap loop's (:func:`seeded_distances`) settle order —
    its heap pops those tuples, weights are positive and the labels
    are the same floats — so the pages charged are the loop's.

    ``cutoff`` is the answer clamp.  :meth:`pairwise_matrix` and
    :meth:`distance` also take ``reach``, an upper bound on the query
    distances of the positions they are given; an uncharged search then
    stops at the *radius* its reads may need instead of ``cutoff``
    (:data:`PAIRWISE_CUTOFF_FACTOR` says why no pair spans more than the
    sum of its two query distances).  A matrix over a closed pool
    searches to ``reach · PAIRWISE_CUTOFF_FACTOR``, or further when its
    ``span`` says later reads of its rows may need it (a COM bootstrap);
    :meth:`distance` searches to ``reach + cutoff / 2``, what any pair
    with ``a`` may span.  The rows are then exact for those reads only.
    A kept row records its radius: a read whose value lies beyond it
    is not returned.  When the row stops short of what the read may
    span, the row's *own* source is searched again, to that radius
    (the other endpoint's row could differ from it in the last bit);
    when it does not, the pair is ``inf``.  A charged search always
    runs to ``cutoff``, as the loop it charges for did, so a charged
    row is never searched again.

    A computer lives and dies with its query
    (:meth:`~repro.core.database.Database.pairwise_computer` builds one
    per query), so its rows never outlive the edge weights they were
    computed against, and ``dijkstra_runs`` / ``dijkstra_seconds`` and
    the ``cache_hits`` / ``cache_misses`` counters (lookups of the kept
    rows) are that query's.  A computer is **not** thread-safe.

    ``backend`` plugs in a :class:`DistanceBackend` oracle (hub labels,
    which tests and the benchmark check the Dijkstra paths against):
    every cross-edge pair is then answered by the oracle instead.
    :meth:`prefetch` bulk-resolves a candidate set through the oracle's
    ``position_matrix``; prefetched pairs are served as cache hits.
    The oracle itself may be shared across queries and threads (it is
    immutable after construction).
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
        #: Whether each search's settled nodes are read through the
        #: provider, charging their pages.
        self._charged = provider is not network
        self._cutoff = cutoff
        self._backend = backend
        #: Each source's row — the C call's block and the source's index
        #: in it — and the radius it was searched to, keyed by the
        #: source's ``(edge_id, offset)``: cutoff and provider are fixed
        #: per computer, so nothing else tells rows apart.
        self._rows: Dict[
            Tuple[int, float], Tuple["np.ndarray", int, float]
        ] = {}
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
        return "dijkstra" if self._charged else "csgraph"

    @staticmethod
    def _key(pos: NetworkPosition) -> Tuple[int, float]:
        return (pos.edge_id, pos.offset)

    def _limit(self, reach: Optional[float], span: float = INF) -> float:
        """The radius a search from sources within ``reach`` of the
        query runs to, when no read of their rows spans more than
        ``max(2 · reach, span)``.

        ``cutoff`` without ``reach``, and always when charged (the
        pages charged are those of a search to ``cutoff``); never more
        than ``reach + cutoff / 2``, what a pair with such a source
        spans at most.
        """
        if reach is None or self._charged:
            return self._cutoff
        return min(
            self._cutoff, reach + self._cutoff / 2,
            max(reach, span / 2) * PAIRWISE_CUTOFF_FACTOR,
        )

    def _run_dijkstras(
        self, sources: Sequence[NetworkPosition],
        reach: Optional[float] = None, span: float = INF,
    ) -> "np.ndarray":
        """One bounded Dijkstra per source, all in one C call, to the
        radius :meth:`_limit` gives; keeps the rows and returns the
        call's ``len(sources) × N`` block.

        Charged, the radius is ``cutoff`` and every settled node's
        adjacency is then read through the provider in settle order.
        """
        start = time.perf_counter()
        limit = self._limit(reach, span)
        block = single_source_rows(self._network, sources, limit)
        if self._charged:
            node_ids = self._network.csr_snapshot().node_ids
            neighbors = self._provider.neighbors
            for row in block:
                settled = np.flatnonzero(
                    np.isfinite(row) & (row <= self._cutoff)
                )
                ids = node_ids[settled]
                for node_id in ids[np.lexsort((ids, row[settled]))].tolist():
                    neighbors(node_id)
        elapsed = time.perf_counter() - start
        self.dijkstra_seconds += elapsed
        self.dijkstra_runs += len(sources)
        if self.tracer.enabled:
            self.tracer.add_span(
                "pairwise.dijkstra", elapsed, start=start,
                source_edge=sources[0].edge_id, sources=len(sources),
                map_nodes=int(np.isfinite(block).sum()),
                cutoff=self._cutoff, limit=limit,
            )
        for s, pos in enumerate(sources):
            self._rows[self._key(pos)] = (block, s, limit)
        return block

    def _row_distance(
        self, block: "np.ndarray", s: int, target: NetworkPosition
    ) -> float:
        """Equation 1 from row ``s`` of ``block`` to a target on another
        edge."""
        edge = self._network.edge(target.edge_id)
        row_of = self._network.csr_snapshot().index_of
        return min(
            block.item(s, row_of[edge.n1]) + target.offset,
            block.item(s, row_of[edge.n2]) + (edge.weight - target.offset),
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
        return self._backend.position_distance(a, b, cutoff=self._cutoff)

    def prefetch(self, positions: Iterable[NetworkPosition]) -> int:
        """Bulk-resolve all pairwise distances of ``positions``.

        Asks the backend oracle for the whole matrix once and stores
        it; later :meth:`distance` calls over these positions are O(1)
        lookups (counted as cache hits).  A no-op returning 0 with no
        backend, whose kept per-source rows already amortise the
        matrix.
        """
        if self._backend is None:
            return 0
        pos_list = list(positions)
        if len(pos_list) < 2:
            return 0
        matrix = self._backend.position_matrix(pos_list, cutoff=self._cutoff)
        for (i, j), d in matrix.items():
            self._pair_cache[self._pair_key(pos_list[i], pos_list[j])] = d
        return len(matrix)

    def pairwise_matrix(
        self, positions: Iterable[NetworkPosition],
        reach: Optional[float] = None, span: Optional[float] = None,
    ) -> "np.ndarray":
        """The full symmetric pairwise matrix as a numpy array, what
        the array greedy consumes as-is.

        With no backend, from the sources' rows
        (:meth:`_matrix_from_rows`); with one, from the oracle's
        ``position_matrix``, each cell what :meth:`distance` answers
        (same-edge rule, ``> cutoff → inf`` clamp).  ``reach`` bounds
        the positions' query distances, so the positions are a closed
        pool whose pairs span at most ``2 · reach``; ``span`` is the
        largest ``δ(q, s) + δ(q, t)`` a later read of a row run here may
        need, should it exceed that (class docstring).
        """
        pos_list = list(positions)
        if self._backend is None:
            return self._matrix_from_rows(pos_list, reach, span or 0.0)
        matrix = np.zeros((len(pos_list), len(pos_list)))
        pairs = self._backend.position_matrix(pos_list, cutoff=self._cutoff)
        for (i, j), d in pairs.items():
            a, b = pos_list[i], pos_list[j]
            if a.edge_id == b.edge_id:
                d = abs(a.offset - b.offset)
            elif d > self._cutoff:
                d = INF
            matrix[i, j] = matrix[j, i] = d
        return matrix

    def _matrix_from_rows(
        self, pos_list: List[NetworkPosition], reach: Optional[float],
        span: float,
    ) -> "np.ndarray":
        """What :meth:`pairwise` answers, as a matrix, cell for cell.

        :meth:`pairwise` walks the pairs ``(i, j)``, ``i < j``, in
        lexicographic order; each cross-edge pair is read from ``i``'s
        row if kept, else from ``j``'s if kept, else ``i``'s Dijkstra
        runs.  On a fresh computer that is every position with a later
        one on another edge.  Here the walk only *decides* — which
        sources run, which cells borrow ``j``'s row — one step per
        position: ``i`` runs unless its row is kept or has no cross-edge
        partner, and only when its first partner's row is kept (a
        duplicate key, or a warm computer) are its further partners
        listed.  Then the sources run (and are charged) in ``i`` order
        in one C call, and the pool's cells are gathered from the kept
        rows where they lie, the call's block among them, without
        copying a row (:meth:`_pool_cells`: Equation 1), then clamped
        at each row's radius, the same-edge rule last.  A row kept
        before the call that a cell reads beyond its radius, short of
        the pool's ``2 · reach``, is run again in the same call.
        Counters advance as the per-pair path's would: one miss per
        run, one hit per other cross-edge pair.
        """
        n = len(pos_list)
        matrix = np.zeros((n, n))
        if n < 2:
            return matrix
        keys = [self._key(pos) for pos in pos_list]
        edges = [edge_id for edge_id, _ in keys]
        edge_ids = np.array(edges, dtype=np.int64)
        offsets = np.array([offset for _, offset in keys], dtype=np.float64)
        same_edge = edge_ids[:, None] == edge_ids[None, :]
        # Each position's first later partner on another edge (n: none).
        first_partner = [n] * (n - 1)
        partner = n
        for i in range(n - 2, -1, -1):
            if edges[i + 1] != edges[i]:
                partner = i + 1
            first_partner[i] = partner

        rows = self._rows
        known = {key for key in keys if key in rows}
        # Only rows kept before the call can fall short of its pairs.
        kept_before = bool(known)
        runs: List[int] = []
        borrowed: List[Tuple[int, int]] = []
        for i, j in enumerate(first_partner):
            if j == n or keys[i] in known:
                continue
            partners = [j] if keys[j] not in known else (
                np.flatnonzero(~same_edge[i, j:]) + j
            ).tolist()
            for j in partners:
                if keys[j] not in known:
                    known.add(keys[i])
                    runs.append(i)
                    break
                borrowed.append((i, j))

        csr = self._network.csr_snapshot()
        heads = csr.edge_rows[edge_ids]
        legs = np.empty((n, 2))
        legs[:, 0] = offsets
        legs[:, 1] = csr.weights[csr.edge_cells[edge_ids, 0]] - offsets

        def cells_of(held: List[int]):
            return self._pool_cells([keys[i] for i in held], heads, legs)

        if kept_before:
            runs += self._stale_sources(
                pos_list, keys, same_edge, borrowed, cells_of,
                self._limit(reach, 0.0),
            )
        if runs:
            self._run_dijkstras([pos_list[i] for i in runs], reach, span)
        cross_pairs = (n * n - int(same_edge.sum())) // 2
        self.cache_misses += len(runs)
        self.cache_hits += cross_pairs - len(runs)

        owners = [i for i in range(n - 1) if keys[i] in rows]
        if owners:
            cells, radii = cells_of(owners)
            cells[cells > radii] = INF
            matrix[owners] = cells
        for i, j in borrowed:
            block, s, radius = rows[keys[j]]
            d = self._row_distance(block, s, pos_list[i])
            matrix[i, j] = d if d <= radius else INF
        along_edge = np.abs(offsets[:, None] - offsets[None, :])
        matrix[same_edge] = along_edge[same_edge]
        at = np.arange(n)
        return np.where(at[:, None] > at, matrix.T, matrix)

    def _pool_cells(
        self, held: List[Tuple[int, float]], heads: "np.ndarray",
        legs: "np.ndarray",
    ) -> Tuple["np.ndarray", "np.ndarray"]:
        """Equation 1 from the kept row of each source in ``held`` to
        every pool position — ``heads[t]`` the rows of ``t``'s edge's
        end-nodes, ``legs[t]`` its way from each — with each row's
        radius as a column.

        Rows are read where they lie: one gather per C call's block
        that holds any of them — a fresh pool's rows all sit in one.
        """
        rows = self._rows
        radii = []
        groups: Dict[int, Tuple["np.ndarray", List[int], List[int]]] = {}
        for at, key in enumerate(held):
            block, s, radius = rows[key]
            radii.append(radius)
            group = groups.get(id(block))
            if group is None:
                group = groups[id(block)] = (block, [], [])
            group[1].append(at)
            group[2].append(s)
        cells = np.empty((len(held), len(heads)))
        for block, ats, srcs in groups.values():
            ways = block[np.array(srcs)[:, None, None], heads] + legs
            cells[ats] = np.minimum(ways[..., 0], ways[..., 1])
        return cells, np.array(radii)[:, None]

    def _stale_sources(
        self, pos_list: List[NetworkPosition], keys: List[Tuple[int, float]],
        same_edge: "np.ndarray", borrowed: List[Tuple[int, int]],
        cells_of, entitled: float,
    ) -> List[int]:
        """The positions whose kept rows a matrix reads beyond their
        radius while the radius falls short of ``entitled``: each
        source once, the first position that holds it."""
        rows = self._rows
        stale: Dict[Tuple[int, float], int] = {}
        short = [
            i for i in range(len(pos_list) - 1)
            if keys[i] in rows and rows[keys[i]][2] < entitled
        ]
        if short:
            beyond, radii = cells_of(short)
            beyond = (beyond > radii) & np.triu(~same_edge, 1)[short]
            for i in np.flatnonzero(beyond.any(axis=1)).tolist():
                stale.setdefault(keys[short[i]], short[i])
        for i, j in borrowed:
            kept = rows.get(keys[j])
            if kept is None:  # the walk runs it now
                continue
            block, s, radius = kept
            if radius < entitled and (
                self._row_distance(block, s, pos_list[i]) > radius
            ):
                stale.setdefault(keys[j], j)
        return list(stale.values())

    def distance(
        self, a: NetworkPosition, b: NetworkPosition,
        reach: Optional[float] = None,
    ) -> float:
        """``δ(a, b)``, or ``inf`` when it exceeds the cutoff or what
        the pair may span.

        ``reach`` bounds ``a``'s query distance, so the pair spans at
        most ``reach + cutoff / 2``: the radius a search from ``a``
        runs to should neither endpoint's row be kept yet, and the one
        a kept row that stops short of the pair is searched again to.
        """
        if a.edge_id == b.edge_id:
            return abs(a.offset - b.offset)
        if self._backend is not None:
            # Clamp exactly like the Dijkstra path below: a caller must
            # see the same inf-beyond-cutoff contract on every backend.
            d = self._backend_distance(a, b)
            return d if d <= self._cutoff else INF
        # One lookup, hit or miss, whichever endpoint's row answers it.
        rows = self._rows
        kept, source, target = rows.get(self._key(a)), a, b
        if kept is None:
            kept, source, target = rows.get(self._key(b)), b, a
        if kept is None:
            source, target = a, b
        else:
            block, s, radius = kept
            d = self._row_distance(block, s, target)
            if d <= radius or radius >= self._limit(reach):
                self.cache_hits += 1
                if self.tracer.enabled:
                    self.tracer.event(
                        "pairwise.cache_hit", source_edge=source.edge_id
                    )
                return d if d <= radius else INF
            # The row stops short of what the pair may span: its own
            # source runs again, further.
        self.cache_misses += 1
        d = self._row_distance(self._run_dijkstras([source], reach), 0, target)
        return d if d <= self._limit(reach) else INF

    def pairwise(
        self, positions: Iterable[NetworkPosition]
    ) -> Dict[Tuple[int, int], float]:
        """All pairwise distances among ``positions`` (by index).

        On a backend oracle the whole matrix is resolved through its
        :meth:`prefetch` first, so each pair costs one lookup.
        """
        pos_list = list(positions)
        self.prefetch(pos_list)
        out: Dict[Tuple[int, int], float] = {}
        for i in range(len(pos_list)):
            for j in range(i + 1, len(pos_list)):
                out[(i, j)] = self.distance(pos_list[i], pos_list[j])
        return out
