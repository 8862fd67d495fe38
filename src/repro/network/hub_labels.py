"""2-hop hub-label distance oracle built on the CH ordering.

A Contraction Hierarchy answers ``δ(a, b)`` with two *query-time*
upward Dijkstras.  Hub labeling moves those searches offline: the
*label* of node ``v`` is its entire CH upward search space — every node
``h`` reachable from ``v`` over upward edges, with the upward-path cost
``d↑(v, h)``.  The CH correctness property (the shortest path always
has an "up then down" representative) then gives, for any two nodes::

    δ(a, b) = min over common hubs h of  d↑(a, h) + d↑(b, h)

so a point query is a merge of two sorted labels — no heap, no graph.
Network positions get a label on the fly by min-merging their edge's
two end-node labels with the seed offsets folded in — exactly the
multi-seed upward search the CH runs at query time.

No query runs on this oracle: tests and the benchmark check the
Dijkstra backends against it.  So the matrix is one point query per
pair, and it keeps the contracts of every other backend: the same-edge
fiat rule short-circuits before any label work, answers beyond
``cutoff`` report ``inf``, and an edge reweight drops the whole
instance for lazy rebuild (see ``Database.update_edge_weight``).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .ch import ContractionHierarchy
from .distance import INF, seed_distances
from .graph import NetworkPosition, RoadNetwork

__all__ = ["HubLabelBackend"]


class HubLabelBackend:
    """An exact point-to-point / many-to-many hub-label oracle.

    Implements the :class:`repro.network.distance.DistanceBackend`
    protocol under the name ``"hub"``.  Immutable once constructed and
    safe to share across queries and threads.

    ``ch`` reuses an already-built Contraction Hierarchy (the labels
    *are* its upward search spaces); when omitted one is built here.
    """

    name = "hub"

    def __init__(
        self,
        network: RoadNetwork,
        ch: Optional[ContractionHierarchy] = None,
    ) -> None:
        if ch is None:
            ch = ContractionHierarchy(network)
        self._network = network
        self.ch = ch
        #: Node id → its label: hub node ids, sorted ascending, and the
        #: upward-path cost to each.
        self._labels: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        for node in ch.rank:
            settled = ch._upward_search({node: 0.0})
            hubs = np.fromiter(settled, np.int64, len(settled))
            dists = np.fromiter(settled.values(), np.float64, len(settled))
            order = np.argsort(hubs)
            self._labels[node] = (hubs[order], dists[order])
        self.label_entries = sum(len(h) for h, _ in self._labels.values())

    def _position_label(self, pos: NetworkPosition):
        """Label of a network position: its end-node labels min-merged
        with the seed offsets folded in (hubs stay sorted unique)."""
        parts = []
        for node_id, off in seed_distances(self._network, pos).items():
            hubs, dists = self._labels[node_id]
            parts.append((hubs, dists + off))
        if len(parts) == 1:
            return parts[0]
        h = np.concatenate([p[0] for p in parts])
        d = np.concatenate([p[1] for p in parts])
        order = np.argsort(h, kind="stable")
        h, d = h[order], d[order]
        first = np.empty(len(h), dtype=bool)
        first[:1] = True
        first[1:] = h[1:] != h[:-1]
        starts = np.flatnonzero(first)
        return h[starts], np.minimum.reduceat(d, starts)

    @staticmethod
    def _join(a, b, cutoff: float) -> float:
        """Minimum meeting cost of two sorted-unique labels; ``inf``
        beyond ``cutoff``."""
        (ha, da), (hb, db) = a, b
        _common, ia, ib = np.intersect1d(
            ha, hb, assume_unique=True, return_indices=True
        )
        d = float((da[ia] + db[ib]).min()) if len(ia) else INF
        return d if d <= cutoff else INF

    # ------------------------------------------------------------------
    # DistanceBackend protocol
    # ------------------------------------------------------------------
    def node_distance(self, a: int, b: int, cutoff: float = INF) -> float:
        """Exact node-to-node distance; ``inf`` beyond ``cutoff``."""
        if a == b:
            return 0.0
        return self._join(self._labels[a], self._labels[b], cutoff)

    def position_distance(
        self, a: NetworkPosition, b: NetworkPosition, cutoff: float = INF
    ) -> float:
        """Exact ``δ(a, b)`` by sorted label merge (Equation 1).

        Same-edge pairs short-circuit by the paper's fiat rule before
        any label is touched, exactly like the other backends.
        """
        if a.edge_id == b.edge_id:
            return abs(a.offset - b.offset)
        return self._join(
            self._position_label(a), self._position_label(b), cutoff
        )

    def position_matrix(
        self, positions: Sequence[NetworkPosition], cutoff: float = INF
    ) -> Dict[Tuple[int, int], float]:
        """The full pairwise matrix as an ``(i, j) → δ`` dict, ``i < j``.

        Each position's label is merged once; every pair is then the
        point query's own arithmetic (:meth:`position_distance`).
        """
        pos_list = list(positions)
        labels = [self._position_label(pos) for pos in pos_list]
        out: Dict[Tuple[int, int], float] = {}
        for i, a in enumerate(pos_list):
            for j in range(i + 1, len(pos_list)):
                b = pos_list[j]
                if a.edge_id == b.edge_id:
                    out[(i, j)] = abs(a.offset - b.offset)
                else:
                    out[(i, j)] = self._join(labels[i], labels[j], cutoff)
        return out

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return (
            f"HubLabelBackend(nodes={len(self._labels)}, "
            f"entries={self.label_entries})"
        )
