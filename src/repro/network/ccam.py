"""CCAM disk layout of the road network (paper §2.2).

The connectivity-clustered access method stores node adjacency lists in
disk pages so that topologically close nodes share pages: nodes are
ordered by the Z-ordering of their coordinates and packed greedily into
pages.  Every adjacency access during query processing is a buffered
page read charged to the I/O model — CCAM's whole point is that network
expansion then enjoys access locality and a high buffer hit rate.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..errors import GraphError
from ..spatial.zorder import CURVE
from ..storage.pagefile import PAGE_SIZE, DiskManager, PageFile
from .graph import RoadNetwork

__all__ = ["CCAMStore"]

_NODE_HEADER_BYTES = 8
_ADJ_ENTRY_BYTES = 20  # edge id, other node id, length, weight, object pointer


class CCAMStore:
    """Disk-resident adjacency lists clustered by Z-order.

    Implements the ``neighbors(node_id)`` adjacency-provider protocol
    used by Dijkstra and the INE expansion; unlike
    :meth:`repro.network.graph.RoadNetwork.neighbors` each call is
    charged as a (buffered) page read.
    """

    def __init__(
        self,
        network: RoadNetwork,
        disk: DiskManager,
        file_name: str = "ccam",
    ) -> None:
        self._network = network
        self._file: PageFile = disk.create_file(file_name, category="network")
        self._node_page: Dict[int, int] = {}
        self._build()

    def _build(self) -> None:
        """Pack adjacency lists into pages in Z-order of the nodes."""
        order = sorted(
            self._network.nodes(),
            key=lambda n: CURVE.encode_point(n.point),
        )
        page_payload: Dict[int, List[Tuple[int, int, float]]] = {}
        page_bytes = 0
        pending_nodes: List[int] = []

        def flush() -> None:
            nonlocal page_payload, page_bytes, pending_nodes
            if not page_payload:
                return
            page_no = self._file.allocate(page_payload, size_bytes=page_bytes)
            for node_id in pending_nodes:
                self._node_page[node_id] = page_no
            page_payload = {}
            page_bytes = 0
            pending_nodes = []

        for node in order:
            adj = self._network.neighbors(node.node_id)
            entry_bytes = _NODE_HEADER_BYTES + len(adj) * _ADJ_ENTRY_BYTES
            if page_bytes + entry_bytes > PAGE_SIZE and page_payload:
                flush()
            page_payload[node.node_id] = list(adj)
            page_bytes += entry_bytes
            pending_nodes.append(node.node_id)
        flush()

    # ------------------------------------------------------------------
    @property
    def num_pages(self) -> int:
        return self._file.num_pages

    def neighbors(self, node_id: int) -> Sequence[Tuple[int, int, float]]:
        """Adjacency list ``(edge_id, other_node, weight)`` — charged I/O."""
        try:
            page_no = self._node_page[node_id]
        except KeyError:
            raise GraphError(f"unknown node {node_id}") from None
        payload = self._file.read(page_no)
        return payload[node_id]

    def refresh_edge(self, edge_id: int) -> None:
        """Re-copy both end-nodes' adjacency lists after an edge update.

        CCAM pages hold *copies* of the in-memory adjacency lists, so a
        :meth:`RoadNetwork.update_edge_weight` leaves them stale until
        this runs.  Each affected page is rewritten in place (charged as
        a write); page layout is untouched because an adjacency entry's
        size does not depend on its weight value.
        """
        edge = self._network.edge(edge_id)
        for node_id in {edge.n1, edge.n2}:
            page_no = self._node_page[node_id]
            payload = self._file.read_unbuffered(page_no)
            payload[node_id] = list(self._network.neighbors(node_id))
            self._file.rewrite(page_no)
