"""2-hop hub-label distance oracle built on the CH ordering.

PR 5's Contraction Hierarchy answers ``δ(a, b)`` with two *query-time*
upward Dijkstras.  Hub labeling moves those searches offline: the
*label* of node ``v`` is its entire CH upward search space — every node
``h`` reachable from ``v`` over upward edges, with the upward-path cost
``d↑(v, h)``.  The CH correctness property (the shortest path always
has an "up then down" representative) then gives, for any two nodes::

    δ(a, b) = min over common hubs h of  d↑(a, h) + d↑(b, h)

so a point query is a sorted-array merge of two labels — no heap, no
graph — and the candidate×candidate matrix SEQ needs becomes one
batched *label-join kernel*: group every candidate label entry by hub,
expand each shared hub's group into its within-group position pairs,
and min-reduce the candidate sums per (i, j) cell with one sort +
``minimum.reduceat`` pass.  The work is ``Σ_h c_h²`` over shared hubs
— proportional to how often labels actually meet, not to the dense
``n² × hubs`` product.

Labels are stored flat: one ``(hubs, dists)`` array pair per node,
hubs encoded as CH *ranks* (sorted ascending, so two labels merge by
``intersect1d`` on pre-sorted unique arrays).  Raw CH search spaces
over-approximate the minimal label: entries whose upward distance
exceeds the true distance can never win a join, and
:meth:`HubLabelBackend._prune_path_covered` removes them at build time
(``prune_labels=False`` keeps the raw spaces for A/B comparison) —
smaller labels, faster joins, byte-identical distances.  Network positions get a
label on the fly by min-merging their edge's two end-node labels with
the seed offsets folded in — exactly the multi-seed upward search the
CH runs at query time, evaluated lazily.

Same contracts as every other backend, bit for bit where it matters:
the same-edge fiat rule short-circuits before any label work, answers
beyond ``cutoff`` report ``inf``, and the oracle is immutable — an
edge reweight drops the whole instance for lazy rebuild (see
``Database.update_edge_weight``), never patches it.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .ch import ContractionHierarchy
from .distance import INF, BackendCounters, seed_distances
from .graph import NetworkPosition, RoadNetwork

__all__ = ["HubLabelBackend"]

#: Cap on the scratch arrays of the min-plus kernel, in pair cells;
#: hub groups are chunked so a block's expanded pair count stays below
#: this.
_KERNEL_CELL_BUDGET = 2_000_000

#: Position-label memo size; cleared wholesale when full (the oracle
#: itself is dropped on any edge reweight, so entries never go stale).
_LABEL_CACHE_ENTRIES = 8192


class HubLabelBackend:
    """An exact point-to-point / many-to-many hub-label oracle.

    Implements the :class:`repro.network.distance.DistanceBackend`
    protocol under the name ``"hub"``.  Immutable once constructed and
    safe to share across queries and threads.  Per-call work is charged
    to the caller's :class:`BackendCounters`: ``settled_nodes`` counts
    label entries scanned, ``bucket_hits`` counts label entries that
    participated in a join (the kernel-hit metric EXPLAIN narrates).

    ``ch`` reuses an already-built Contraction Hierarchy (the labels
    *are* its upward search spaces); when omitted one is built here.
    """

    name = "hub"

    def __init__(
        self,
        network: RoadNetwork,
        ch: Optional[ContractionHierarchy] = None,
        max_witness_settled: int = 50,
        prune_labels: bool = True,
    ) -> None:
        if ch is None:
            ch = ContractionHierarchy(
                network, max_witness_settled=max_witness_settled
            )
        self._network = network
        self.ch = ch
        self.num_nodes = ch.num_nodes
        self.prune_labels = prune_labels
        self._label_cache: Dict[Tuple[int, float], Tuple] = {}
        start = time.perf_counter()
        self._build_labels()
        self.build_seconds = time.perf_counter() - start

    # ------------------------------------------------------------------
    # Offline label construction
    # ------------------------------------------------------------------
    def _build_labels(self) -> None:
        rank = self.ch.rank
        n = self.num_nodes
        # Row r holds the label of the node with CH rank r; ranks are a
        # permutation of 0..n-1 so the rank doubles as the row index
        # *and* as the hub encoding inside labels.
        indptr = np.zeros(n + 1, dtype=np.int64)
        hub_chunks: List = []
        dist_chunks: List = []
        total = 0
        max_label = 0
        for node, r in rank.items():
            settled = self.ch._upward_search({node: 0.0})
            hubs = np.fromiter(
                (rank[h] for h in settled), np.int64, len(settled)
            )
            dists = np.fromiter(settled.values(), np.float64, len(settled))
            order = np.argsort(hubs)
            hub_chunks.append((r, hubs[order], dists[order]))
            total += len(settled)
            max_label = max(max_label, len(settled))
        hub_chunks.sort(key=lambda t: t[0])
        for r, hubs, dists in hub_chunks:
            indptr[r + 1] = indptr[r] + len(hubs)
            dist_chunks.append(dists)
        self._indptr = indptr
        self._hubs = (
            np.concatenate([h for _, h, _ in hub_chunks])
            if hub_chunks else np.zeros(0, dtype=np.int64)
        )
        self._dists = (
            np.concatenate(dist_chunks)
            if dist_chunks else np.zeros(0, dtype=np.float64)
        )
        self.num_labels = n
        self.label_entries_unpruned = total
        self.pruned_entries = 0
        if self.prune_labels and n:
            self._prune_path_covered()
        sizes = np.diff(self._indptr)
        self.label_entries = int(sizes.sum()) if n else 0
        self.max_label_size = int(sizes.max()) if n else 0
        self.avg_label_size = self.label_entries / n if n else 0.0

    def _prune_path_covered(self) -> None:
        """Drop label entries whose upward distance is not the true
        distance — the *path-cover* prune (Abraham et al., HHL).

        The CH upward search records ``d↑(v, h)``, the cheapest
        *upward-only* path to ``h``, which can exceed the true
        ``δ(v, h)`` when the shortest v→h path dips below ``h`` in the
        hierarchy.  Such an entry can never participate in a tight
        meeting: for any target ``w``, the sum via ``h`` is
        ``d↑(v, h) + d↑(w, h) > δ(v, h) + δ(h, w) ≥ δ(v, w)``, while
        the CH up-down property guarantees some hub ``h*`` meets with
        *both* sides tight — and tight entries are never dropped here
        (their join equals the stored value, not less).  So pruning on
        the **unpruned** labels — entry ``(h, d)`` goes when
        ``join(L(v), L(h)) < d``, i.e. an already-known hub pair
        certifies a strictly cheaper v→h path — leaves every query
        minimum byte-identical, certificates included or not.

        The join always contains the ``(h, h)`` pair at exactly ``d``
        (hub ``h`` holds itself at 0), so ``joined < d`` is precisely
        "a different hub certifies cheaper", with float comparisons on
        the very sums the query kernel would form.
        """
        indptr = self._indptr
        hubs = self._hubs
        dists = self._dists
        n = self.num_labels
        keep = np.ones(len(hubs), dtype=bool)
        for r in range(n):
            s, e = int(indptr[r]), int(indptr[r + 1])
            if e - s <= 1:
                continue  # only the self entry; nothing to cover it
            ha, da = hubs[s:e], dists[s:e]
            for k in range(e - s):
                h = int(ha[k])
                if h == r:
                    continue  # self entry (d = 0) is always tight
                hs, he = int(indptr[h]), int(indptr[h + 1])
                _c, ia, ib = np.intersect1d(
                    ha, hubs[hs:he], assume_unique=True,
                    return_indices=True,
                )
                joined = float((da[ia] + dists[hs:he][ib]).min())
                if joined < float(da[k]):
                    keep[s + k] = False
        dropped = int(len(keep) - int(keep.sum()))
        if not dropped:
            return
        self.pruned_entries = dropped
        # Every row keeps at least its self entry, so indptr[:-1] is
        # strictly increasing and reduceat sees one segment per node.
        kept_per_row = np.add.reduceat(keep.astype(np.int64), indptr[:-1])
        new_indptr = np.zeros(n + 1, dtype=np.int64)
        new_indptr[1:] = np.cumsum(kept_per_row)
        self._hubs = hubs[keep]
        self._dists = dists[keep]
        self._indptr = new_indptr

    # ------------------------------------------------------------------
    # Label access
    # ------------------------------------------------------------------
    def _node_label(self, node_id: int):
        r = self.ch.rank[node_id]
        s, e = int(self._indptr[r]), int(self._indptr[r + 1])
        return self._hubs[s:e], self._dists[s:e]

    def _position_label(self, pos: NetworkPosition):
        """Label of a network position: its end-node labels min-merged
        with the seed offsets folded in (hubs stay sorted unique).

        Memoised per (edge, offset) — the oracle is immutable, and the
        same object positions recur across the matrix kernel, the
        finalisation point queries, and later queries of a workload.
        """
        key = (pos.edge_id, pos.offset)
        cached = self._label_cache.get(key)
        if cached is not None:
            return cached
        label = self._build_position_label(pos)
        if len(self._label_cache) >= _LABEL_CACHE_ENTRIES:
            self._label_cache.clear()
        self._label_cache[key] = label
        return label

    def _build_position_label(self, pos: NetworkPosition):
        seeds = seed_distances(self._network, pos)
        parts = []
        for node_id, off in seeds.items():
            hubs, dists = self._node_label(node_id)
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

    def _join(self, ha, da, hb, db) -> float:
        """Minimum meeting cost of two sorted-unique labels."""
        _common, ia, ib = np.intersect1d(
            ha, hb, assume_unique=True, return_indices=True
        )
        if len(ia) == 0:
            return INF
        return float((da[ia] + db[ib]).min())

    # ------------------------------------------------------------------
    # DistanceBackend protocol
    # ------------------------------------------------------------------
    def node_distance(
        self,
        a: int,
        b: int,
        cutoff: float = INF,
        counters: Optional[BackendCounters] = None,
    ) -> float:
        """Exact node-to-node distance; ``inf`` beyond ``cutoff``."""
        if a == b:
            return 0.0
        ha, da = self._node_label(a)
        hb, db = self._node_label(b)
        if counters is not None:
            counters.queries += 1
            counters.settled_nodes += len(ha) + len(hb)
        d = self._join(ha, da, hb, db)
        return d if d <= cutoff else INF

    def position_distance(
        self,
        a: NetworkPosition,
        b: NetworkPosition,
        cutoff: float = INF,
        counters: Optional[BackendCounters] = None,
    ) -> float:
        """Exact ``δ(a, b)`` by sorted label merge (Equation 1).

        Same-edge pairs short-circuit by the paper's fiat rule before
        any label is touched, exactly like the other backends.
        """
        if a.edge_id == b.edge_id:
            return abs(a.offset - b.offset)
        ha, da = self._position_label(a)
        hb, db = self._position_label(b)
        if counters is not None:
            counters.queries += 1
            counters.settled_nodes += len(ha) + len(hb)
        d = self._join(ha, da, hb, db)
        return d if d <= cutoff else INF

    def position_matrix(
        self,
        positions: Sequence[NetworkPosition],
        cutoff: float = INF,
        counters: Optional[BackendCounters] = None,
    ) -> Dict[Tuple[int, int], float]:
        """The full pairwise matrix as an ``(i, j) → δ`` dict.

        A thin wrapper over :meth:`position_matrix_array` for callers
        that speak the dict protocol (the prefetch pair cache).  Keys
        are index pairs ``(i, j)`` with ``i < j``; values follow the
        same same-edge / cutoff contract as :meth:`position_distance`.
        """
        pos_list = list(positions)
        n = len(pos_list)
        if n < 2:
            return {}
        dist = self.position_matrix_array(
            pos_list, cutoff=cutoff, counters=counters
        )
        out: Dict[Tuple[int, int], float] = {}
        for i in range(n):
            row = dist[i].tolist()
            for j in range(i + 1, n):
                out[(i, j)] = row[j]
        return out

    def position_matrix_array(
        self,
        positions: Sequence[NetworkPosition],
        cutoff: float = INF,
        counters: Optional[BackendCounters] = None,
    ):
        """The full pairwise matrix via the batched label-join kernel.

        Groups every position-label entry by hub — only hubs appearing
        in at least two labels can join — then expands each shared
        hub's group into its within-group position pairs and min-plus
        reduces the candidate sums per matrix cell in one sorted
        ``minimum.reduceat`` sweep, chunked to bound scratch memory.
        Returns the dense symmetric ``n × n`` float64 array (diagonal
        0) with the same-edge fiat and cutoff contracts already
        applied — no per-pair Python in the whole pass, which is what
        lets the array greedy consume it directly.
        """
        pos_list = list(positions)
        n = len(pos_list)
        if n < 2:
            return np.zeros((n, n), dtype=np.float64)
        labels = [self._position_label(p) for p in pos_list]
        entries = sum(len(h) for h, _ in labels)
        if counters is not None:
            counters.queries += n
            counters.settled_nodes += entries
        all_h = np.concatenate([h for h, _ in labels])
        all_d = np.concatenate([d for _, d in labels])
        all_p = np.concatenate([
            np.full(len(h), i, dtype=np.int64)
            for i, (h, _) in enumerate(labels)
        ])
        order = np.argsort(all_h, kind="stable")
        h, d, p = all_h[order], all_d[order], all_p[order]
        newgrp = np.empty(len(h), dtype=bool)
        newgrp[:1] = True
        newgrp[1:] = h[1:] != h[:-1]
        grp = np.cumsum(newgrp) - 1
        counts = np.bincount(grp)
        shared = counts >= 2  # hubs reached by >= 2 positions
        keep = shared[grp]
        kernel_hits = int(keep.sum())
        dist = np.full((n, n), INF)
        if kernel_hits:
            dk = d[keep]
            pk = p[keep]
            gk_raw = grp[keep]
            new_g = np.empty(kernel_hits, dtype=bool)
            new_g[:1] = True
            new_g[1:] = gk_raw[1:] != gk_raw[:-1]
            gk = np.cumsum(new_g) - 1
            counts_all = np.bincount(gk)
            starts_all = np.concatenate(
                (np.zeros(1, dtype=np.int64), np.cumsum(counts_all[:-1]))
            )
            # Hubs near the top of the hierarchy sit in almost every
            # label; expanding their c² pairs through the sort path
            # costs more than one dense n² broadcast, so large groups
            # go dense and only the (many, small) rest are expanded.
            big = counts_all * counts_all * 4 >= n * n
            for g in np.flatnonzero(big):
                s0 = int(starts_all[g])
                e0 = s0 + int(counts_all[g])
                col = np.full(n, INF)
                col[pk[s0:e0]] = dk[s0:e0]
                np.minimum(dist, col[:, None] + col[None, :], out=dist)
            small = ~big[gk]
            dk = dk[small]
            pk = pk[small]
            counts_k = counts_all[~big]
            group_starts = np.concatenate(
                (np.zeros(1, dtype=np.int64), np.cumsum(counts_k[:-1]))
            )
            pair_counts = counts_k * counts_k
            # Chunk whole hub groups so a block's scratch pair count
            # stays under the budget (one oversized group still gets a
            # block of its own).
            budget = max(
                int(_KERNEL_CELL_BUDGET),
                int(pair_counts.max()) if len(pair_counts) else 1,
            )
            excl = np.cumsum(pair_counts) - pair_counts
            block_of_group = excl // budget
            num_groups = len(counts_k)
            bounds = np.flatnonzero(
                np.concatenate(
                    ([True], block_of_group[1:] != block_of_group[:-1])
                )
            )
            bounds = np.append(bounds, num_groups)
            flat = dist.reshape(-1)
            for gs, ge in zip(bounds[:-1], bounds[1:]):
                c_sel = counts_k[gs:ge]
                pc = c_sel * c_sel
                total = int(pc.sum())
                bstart = np.concatenate(
                    (np.zeros(1, dtype=np.int64), np.cumsum(pc[:-1]))
                )
                gid = np.repeat(np.arange(ge - gs), pc)
                local = np.arange(total) - bstart[gid]
                cg = c_sel[gid]
                li = group_starts[gs:ge][gid] + local // cg
                ri = group_starts[gs:ge][gid] + local % cg
                pi, pj = pk[li], pk[ri]
                tri = pi < pj  # upper triangle only; (i, i) is unused
                cells = pi[tri] * n + pj[tri]
                sums = dk[li][tri] + dk[ri][tri]
                order = np.argsort(cells, kind="stable")
                cells, sums = cells[order], sums[order]
                bound = np.empty(len(cells), dtype=bool)
                bound[:1] = True
                bound[1:] = cells[1:] != cells[:-1]
                cell_starts = np.flatnonzero(bound)
                if len(cell_starts):
                    mins = np.minimum.reduceat(sums, cell_starts)
                    ucells = cells[cell_starts]  # unique within block
                    flat[ucells] = np.minimum(flat[ucells], mins)
        # Contracts, vectorized: inf beyond the cutoff, then the
        # same-edge fiat rule (which bypasses the cutoff), symmetric
        # with a zero diagonal.
        dist = np.minimum(dist, dist.T)
        dist = np.where(dist <= cutoff, dist, INF)
        edge_ids = np.fromiter(
            (pos.edge_id for pos in pos_list), np.int64, n
        )
        offsets = np.fromiter(
            (pos.offset for pos in pos_list), np.float64, n
        )
        order = np.argsort(edge_ids, kind="stable")
        sorted_edges = edge_ids[order]
        run_starts = np.flatnonzero(
            np.concatenate(([True], sorted_edges[1:] != sorted_edges[:-1]))
        )
        for s, e in zip(run_starts, np.append(run_starts[1:], n)):
            if e - s < 2:
                continue
            rows = order[s:e]
            offs = offsets[rows]
            dist[np.ix_(rows, rows)] = np.abs(offs[:, None] - offs[None, :])
        np.fill_diagonal(dist, 0.0)
        if counters is not None:
            counters.bucket_hits += kernel_hits
            counters.matrix_cells += n * (n - 1) // 2
        return dist

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """A JSON-able build summary for metrics records and gauges."""
        return {
            "nodes": self.num_nodes,
            "labels": self.num_labels,
            "label_entries": self.label_entries,
            "label_entries_unpruned": self.label_entries_unpruned,
            "pruned_entries": self.pruned_entries,
            "avg_label_size": self.avg_label_size,
            "max_label_size": self.max_label_size,
            "build_seconds": self.build_seconds,
            "ch_shortcuts_added": self.ch.shortcuts_added,
            "ch_preprocess_seconds": self.ch.preprocess_seconds,
        }

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return (
            f"HubLabelBackend(nodes={self.num_nodes}, "
            f"entries={self.label_entries}, "
            f"avg_label={self.avg_label_size:.1f})"
        )
