"""Road network model (paper §2.1).

A road network is a weighted graph ``G = (V, E, W)``: nodes are road
intersections with 2-d coordinates, edges are bidirectional road
segments with a positive *length* (geometric) and a positive *weight*
(cost — distance or travel time).  Spatio-textual objects and query
points lie on edges; their location is a :class:`NetworkPosition`, an
``(edge, offset)`` pair where the offset is measured in *weight* units
from the edge's reference node (the end-node with the smaller id).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import GraphError
from ..spatial.geometry import MBR, Point

__all__ = ["Node", "Edge", "NetworkPosition", "CSRSnapshot", "RoadNetwork"]


@dataclass(frozen=True)
class Node:
    """A road intersection."""

    node_id: int
    point: Point


@dataclass(frozen=True)
class Edge:
    """A bidirectional road segment between two intersections.

    ``n1`` is always the *reference node* (smaller id); object offsets
    are measured from it.  ``length`` is the geometric length of the
    segment while ``weight`` is its traversal cost — they coincide when
    the cost model is distance.
    """

    edge_id: int
    n1: int
    n2: int
    length: float
    weight: float
    p1: Point
    p2: Point

    def __post_init__(self) -> None:
        if self.n1 >= self.n2:
            raise GraphError(
                f"edge {self.edge_id}: reference node must have the smaller id "
                f"({self.n1} >= {self.n2})"
            )
        # Written so NaN fails too: every comparison with NaN is false.
        if not (0 < self.length < math.inf and 0 < self.weight < math.inf):
            raise GraphError(
                f"edge {self.edge_id}: length and weight must be positive "
                f"and finite (got {self.length}, {self.weight})"
            )

    @property
    def mbr(self) -> MBR:
        return MBR.from_points((self.p1, self.p2))

    @property
    def center(self) -> Point:
        return Point((self.p1.x + self.p2.x) / 2.0, (self.p1.y + self.p2.y) / 2.0)

    def point_at_fraction(self, t: float) -> Point:
        """Point at fractional position ``t in [0, 1]`` from ``n1``."""
        return Point(
            self.p1.x + t * (self.p2.x - self.p1.x),
            self.p1.y + t * (self.p2.y - self.p1.y),
        )


@dataclass(frozen=True)
class NetworkPosition:
    """A location on the network: an edge plus a weight-offset from ``n1``."""

    edge_id: int
    offset: float  # in weight units, 0 at the reference node n1

    def __post_init__(self) -> None:
        if not self.offset >= 0:  # rejects nan as well
            raise GraphError(f"offset {self.offset} on edge {self.edge_id} is not >= 0")


class CSRSnapshot:
    """The adjacency lists of a :class:`RoadNetwork` as flat arrays.

    Compressed sparse rows, the layout C graph kernels
    (``scipy.sparse.csgraph``) read: row ``r`` stands for node
    ``node_ids[r]`` (ids need not be dense), its neighbours are
    ``indices[indptr[r]:indptr[r + 1]]`` (as rows) at costs ``weights``
    in the same cells.  Every edge owns two cells, one per direction;
    ``edge_cells[edge_id]`` names them, so a reweight is two array
    writes (:meth:`set_weight`), not a rebuild.  ``edge_rows[edge_id]``
    are the rows of the edge's ``(n1, n2)``.

    Owned by the network (:meth:`RoadNetwork.csr_snapshot`), which keeps
    it current; everyone else only reads it.
    """

    __slots__ = (
        "node_ids", "index_of", "indptr", "indices", "weights",
        "edge_rows", "edge_cells",
    )

    def __init__(self, network: "RoadNetwork") -> None:
        ids = [node.node_id for node in network.nodes()]
        index_of = {node_id: row for row, node_id in enumerate(ids)}
        lists = [network.neighbors(node_id) for node_id in ids]
        cells = sum(len(adj) for adj in lists)
        self.node_ids = np.array(ids, dtype=np.int64)
        self.index_of: Dict[int, int] = index_of
        self.indptr = np.zeros(len(ids) + 1, dtype=np.int32)
        np.cumsum(
            np.fromiter((len(adj) for adj in lists), np.int32, len(ids)),
            out=self.indptr[1:],
        )
        self.indices = np.fromiter(
            (index_of[other] for adj in lists for _e, other, _w in adj),
            np.int32, cells,
        )
        self.weights = np.fromiter(
            (weight for adj in lists for _e, _o, weight in adj),
            np.float64, cells,
        )
        # Edge ids are dense (``add_edge`` numbers them) and every edge
        # sits in exactly two adjacency lists, so sorting the cells by
        # edge id pairs them up in edge-id order.
        edge_of_cell = np.fromiter(
            (edge_id for adj in lists for edge_id, _o, _w in adj),
            np.int64, cells,
        )
        self.edge_cells = np.argsort(edge_of_cell, kind="stable").reshape(-1, 2)
        self.edge_rows = np.array(
            [(index_of[e.n1], index_of[e.n2]) for e in network.edges()],
            dtype=np.int32,
        ).reshape(-1, 2)

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    def set_weight(self, edge_id: int, weight: float) -> None:
        """Write one edge's new cost into its two cells."""
        self.weights[self.edge_cells[edge_id]] = weight


class RoadNetwork:
    """In-memory road network with adjacency lists.

    This is the *logical* graph.  Query processing never touches it
    directly: it goes through the CCAM disk layout
    (:class:`repro.network.ccam.CCAMStore`) so adjacency accesses are
    charged to the I/O model.  The in-memory form is used by builders,
    dataset generators and tests.
    """

    def __init__(self) -> None:
        self._nodes: Dict[int, Node] = {}
        self._edges: Dict[int, Edge] = {}
        self._adjacency: Dict[int, List[Tuple[int, int, float]]] = {}
        self._edge_by_nodes: Dict[Tuple[int, int], int] = {}
        #: Array copy of the adjacency, built on first request (see
        #: :meth:`csr_snapshot`); ``None`` until then and after the
        #: node or edge set changed.
        self._csr: Optional[CSRSnapshot] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node_id: int, x: float, y: float) -> Node:
        if node_id in self._nodes:
            raise GraphError(f"duplicate node id {node_id}")
        node = Node(node_id, Point(x, y))
        self._nodes[node_id] = node
        self._adjacency[node_id] = []
        self._csr = None
        return node

    def add_edge(
        self,
        node_a: int,
        node_b: int,
        weight: Optional[float] = None,
        length: Optional[float] = None,
    ) -> Edge:
        """Add a bidirectional edge between two existing nodes.

        ``length`` defaults to the Euclidean distance between the
        end-points; ``weight`` defaults to ``length`` (distance cost
        model).
        """
        if node_a == node_b:
            raise GraphError(f"self-loop at node {node_a}")
        for nid in (node_a, node_b):
            if nid not in self._nodes:
                raise GraphError(f"unknown node {nid}")
        n1, n2 = (node_a, node_b) if node_a < node_b else (node_b, node_a)
        if (n1, n2) in self._edge_by_nodes:
            raise GraphError(f"duplicate edge ({n1}, {n2})")
        p1, p2 = self._nodes[n1].point, self._nodes[n2].point
        if length is None:
            length = p1.distance_to(p2)
            if length == 0:
                raise GraphError(f"zero-length edge ({n1}, {n2})")
        if weight is None:
            weight = length
        edge = Edge(len(self._edges), n1, n2, length, weight, p1, p2)
        self._edges[edge.edge_id] = edge
        self._adjacency[n1].append((edge.edge_id, n2, weight))
        self._adjacency[n2].append((edge.edge_id, n1, weight))
        self._edge_by_nodes[(n1, n2)] = edge.edge_id
        self._csr = None
        return edge

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def update_edge_weight(self, edge_id: int, weight: float) -> Edge:
        """Change the traversal cost of an existing edge.

        Returns the replacement :class:`Edge`.  Only the *weight* (cost)
        changes; geometry (``length``, end-points) is immutable.  The
        caller owns downstream consistency — object offsets are in
        weight units and any derived structure (CCAM pages, hub
        labels) holds copies of the old weight; see
        ``Database.update_edge_weight`` for the orchestrated version.
        A weight outside ``(0, inf)`` raises :class:`GraphError` (from
        :class:`Edge`) before anything changes.
        """
        new = dataclasses.replace(self.edge(edge_id), weight=weight)
        self._edges[edge_id] = new
        for node_id in (new.n1, new.n2):
            adj = self._adjacency[node_id]
            for i, (eid, other, _) in enumerate(adj):
                if eid == edge_id:
                    adj[i] = (eid, other, weight)
        if self._csr is not None:
            self._csr.set_weight(edge_id, weight)
        return new

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def edge(self, edge_id: int) -> Edge:
        try:
            return self._edges[edge_id]
        except KeyError:
            raise GraphError(f"unknown edge {edge_id}") from None

    def nodes(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def edges(self) -> Iterator[Edge]:
        return iter(self._edges.values())

    def neighbors(self, node_id: int) -> List[Tuple[int, int, float]]:
        """Adjacency list of ``node_id`` as ``(edge_id, other, weight)``."""
        try:
            return self._adjacency[node_id]
        except KeyError:
            raise GraphError(f"unknown node {node_id}") from None

    def csr_snapshot(self) -> CSRSnapshot:
        """The adjacency as flat arrays, for traversals that run in C.

        Built on the first call (one pass over the adjacency lists) and
        then the same object on every call: :meth:`update_edge_weight`
        patches it in place, only :meth:`add_node` / :meth:`add_edge`
        drop it for a rebuild on the next request.
        """
        if self._csr is None:
            self._csr = CSRSnapshot(self)
        return self._csr

    def edge_between(self, node_a: int, node_b: int) -> Optional[Edge]:
        n1, n2 = (node_a, node_b) if node_a < node_b else (node_b, node_a)
        edge_id = self._edge_by_nodes.get((n1, n2))
        return None if edge_id is None else self._edges[edge_id]

    # ------------------------------------------------------------------
    # Positions
    # ------------------------------------------------------------------
    def position_point(self, pos: NetworkPosition) -> Point:
        """Geometric point of a network position."""
        edge = self.edge(pos.edge_id)
        if pos.offset > edge.weight + 1e-9:
            raise GraphError(
                f"offset {pos.offset} exceeds weight {edge.weight} "
                f"of edge {pos.edge_id}"
            )
        t = min(1.0, pos.offset / edge.weight)
        return edge.point_at_fraction(t)

    def node_position(self, node_id: int) -> NetworkPosition:
        """A network position located exactly at a node."""
        adj = self.neighbors(node_id)
        if not adj:
            raise GraphError(f"node {node_id} is isolated")
        edge_id, _, _ = adj[0]
        edge = self.edge(edge_id)
        offset = 0.0 if edge.n1 == node_id else edge.weight
        return NetworkPosition(edge_id, offset)
