"""SIF-P — signature-based inverted file with edge partitioning (§3.3).

Dense edges are split into *virtual edges*, each with its own
signature, so that queries whose keywords occur on the edge but never
on the same object (or the same stretch of the edge) fail the signature
test instead of loading postings.  Postings are stored per virtual
edge, so a passing virtual edge only loads its own objects.

Only the densest edges are partitioned (the paper considers "the edges
whose number of objects ranked at the top 10%"), with a bounded number
of cuts (3 in the experiments); the partition is chosen by the greedy
solver against a query log (the exact DP solver,
:func:`~repro.index.partition.dp_partition`, is its test reference).
"""

from __future__ import annotations

import bisect
import time
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..network.objects import ObjectStore, SpatioTextualObject
from ..obs.tracing import NULL_TRACER
from ..spatial.kdtree import KDTreePartition
from ..storage.bplustree import BPlusTree
from ..storage.pagefile import DiskManager, PageFile
from .base import LoadCounters, ObjectIndex, offset_of
from .inverted_file import (
    EdgeKeys,
    and_runs,
    append_posting,
    build_term_tree,
    drop_posting,
    posting_lists,
    rarest_first,
)
from .partition import QueryLog, greedy_partition, segments_from_cuts
from .query_log import frequency_edge_log
from .signature import PackedBitMatrix

__all__ = ["SIFPIndex", "LogBuilder"]

#: A posting: ``(edge_key, virtual_idx, object_id, offset)``, filed
#: under its first two fields.  Virtual-edge membership is positional
#: (pages are sorted by edge key, then virtual edge), so a SIF-P
#: posting costs the same :data:`POSTING_BYTES` as a SIF posting.
_Posting = Tuple[int, int, int, float]

#: Builds a per-edge query log from the keyword sets of its objects.
LogBuilder = Callable[[Sequence[FrozenSet[str]], np.random.Generator], QueryLog]


def _default_log_builder(
    object_keywords: Sequence[FrozenSet[str]], rng: np.random.Generator
) -> QueryLog:
    """SIF-P-Freq: frequency-weighted synthetic log (the paper default)."""
    return frequency_edge_log(object_keywords, num_queries=32, num_terms=3, rng=rng)


class SIFPIndex(ObjectIndex):
    """Partition-enhanced signature-based inverted file (index "SIF-P")."""

    name = "SIF-P"

    def __init__(
        self,
        store: ObjectStore,
        disk: DiskManager,
        kd_partition: Optional[KDTreePartition] = None,
        max_cuts: int = 3,
        partition_fraction: float = 0.10,
        log_builder: Optional[LogBuilder] = None,
        min_postings_pages: int = 1,
        seed: int = 7,
        file_prefix: str = "sifp",
    ) -> None:
        super().__init__(store)
        self._disk = disk
        self._network = store.network
        self._edge_keys = EdgeKeys(self._network)
        self._max_cuts = max_cuts
        self._partition_fraction = partition_fraction
        self._log_builder = log_builder or _default_log_builder
        self._min_postings_pages = min_postings_pages
        self._rng = np.random.default_rng(seed)
        if kd_partition is None:
            centers = [e.center for e in store.network.edges()]
            kd_partition = KDTreePartition(centers)
        self._kd = kd_partition

        self._postings: PageFile = disk.create_file(
            f"{file_prefix}.postings", category="inverted"
        )
        self._tree_file: PageFile = disk.create_file(
            f"{file_prefix}.trees", category="inverted"
        )
        self._trees: Dict[str, BPlusTree] = {}
        self._pages_per_term: Dict[str, int] = {}
        #: edge_id -> inclusive (start, end) object ranges (visiting order)
        self._segments: Dict[int, List[Tuple[int, int]]] = {}
        #: edge_id -> cut *offsets*: the offset of the first object of
        #: each segment after the first, frozen at build time.  The
        #: build-time cuts are positional (between object ranks), but
        #: ranks shift under insert/delete; anchoring each cut at an
        #: offset makes virtual-edge membership a stable function of
        #: position, so dynamic maintenance can place new objects and
        #: recompute the positional ranges from the current store.
        self._boundaries: Dict[int, List[float]] = {}
        #: Per-term int rows over a *global* virtual-edge slot
        #: space: every edge owns a contiguous run of
        #: ``max(1, len(segments))`` slots, assigned at build (or lazily
        #: for edges first populated dynamically).  Slot counts are
        #: stable — ``_recompute_segments`` preserves the segment count
        #: — so a slot id is a permanent name for ``(edge, v_idx)``.
        self._matrix = PackedBitMatrix(0)
        #: edge_id -> first slot of its run
        self._slot_base: Dict[int, int] = {}
        #: slot -> owning edge (size accounting walks rows back to edges)
        self._slot_edge: List[int] = []
        self._unsigned_terms: Set[str] = set()

        start = time.perf_counter()
        self._build()
        self.build_seconds = time.perf_counter() - start

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _choose_partitioned_edges(self) -> Set[int]:
        """Edges dense enough to partition (top fraction by object count)."""
        counts = [
            (len(self._store.objects_on_edge(e)), e)
            for e in self._store.edges_with_objects()
        ]
        counts = [(n, e) for n, e in counts if n >= 2]
        if not counts:
            return set()
        counts.sort(reverse=True)
        keep = max(1, int(round(len(counts) * self._partition_fraction)))
        return {e for _n, e in counts[:keep]}

    def _partition_edge(self, object_keywords: List[FrozenSet[str]]) -> Tuple[int, ...]:
        log = self._log_builder(object_keywords, self._rng)
        if not log:
            return ()
        cuts, _cost = greedy_partition(object_keywords, self._max_cuts, log)
        return cuts

    def _alloc_slots(self, edge_id: int, count: int) -> int:
        """Reserve ``count`` contiguous virtual-edge slots for an edge."""
        base = len(self._slot_edge)
        self._slot_base[edge_id] = base
        self._slot_edge.extend([edge_id] * count)
        self._matrix.ensure_slots(len(self._slot_edge))
        return base

    def _slot(self, edge_id: int, v_idx: int) -> int:
        """Global slot of ``(edge_id, v_idx)`` (lazily allocates one
        slot for edges first populated after the build)."""
        base = self._slot_base.get(edge_id)
        if base is None:
            base = self._alloc_slots(edge_id, 1)
        return base + v_idx

    def _build(self) -> None:
        to_partition = self._choose_partitioned_edges()
        # term -> postings in (edge key, virtual idx) order
        staged: Dict[str, List[_Posting]] = {}
        staged_bits: Dict[str, Set[int]] = {}
        ordered_edges = sorted(
            self._store.edges_with_objects(),
            key=self._edge_keys.__getitem__,
        )
        for edge_id in ordered_edges:
            objects = self._store.objects_on_edge(edge_id)
            cuts: Tuple[int, ...] = ()
            if edge_id in to_partition and len(objects) >= 2:
                # The partition tests subsets per (query, object group):
                # one transient frozenset per object keeps them in C.
                cuts = self._partition_edge(
                    [frozenset(o.keywords) for o in objects]
                )
            segments = segments_from_cuts(len(objects), cuts)
            self._segments[edge_id] = segments
            self._boundaries[edge_id] = [
                objects[seg_start].position.offset
                for seg_start, _seg_end in segments[1:]
            ]
            base = self._alloc_slots(edge_id, max(1, len(segments)))
            key = self._edge_keys[edge_id]
            for v_idx, (seg_start, seg_end) in enumerate(segments):
                for obj in objects[seg_start : seg_end + 1]:
                    posting = (key, v_idx, obj.object_id, obj.position.offset)
                    for term in obj.keywords:
                        staged.setdefault(term, []).append(posting)
                        staged_bits.setdefault(term, set()).add(base + v_idx)

        for term in sorted(staged):
            # The tree's value is {v_idx: run}; every term starts on a
            # fresh page.
            first_page = self._postings.num_pages
            self._trees[term], _runs = build_term_tree(
                self._postings, self._tree_file, staged[term], width=2
            )
            self._pages_per_term[term] = self._postings.num_pages - first_page

        # The paper's rule: rare keywords (inverted file fits in one
        # page) carry no signature; their bits always pass.
        for term, pages in self._pages_per_term.items():
            if pages < self._min_postings_pages:
                self._unsigned_terms.add(term)
                staged_bits.pop(term, None)
        for term, slots in staged_bits.items():
            self._matrix.bulk_set(term, slots)

    # ------------------------------------------------------------------
    # Signature test per virtual edge
    # ------------------------------------------------------------------
    @property
    def num_signed_terms(self) -> int:
        return self._matrix.num_rows

    # ------------------------------------------------------------------
    # Algorithm 2 with per-virtual-edge signatures
    # ------------------------------------------------------------------
    def loader(
        self, terms: FrozenSet[str], counters: Optional[LoadCounters] = None,
        tracer=NULL_TRACER,
    ) -> Callable[[int], List[SpatioTextualObject]]:
        if counters is None:
            counters = self.lifetime_counters
        sig_start = time.perf_counter()
        # AND the signed terms' rows once; an edge's virtual edges are
        # then one masked window of the result.  A non-unsigned term
        # with no row means "absent from the whole dataset": every
        # segment fails, which is what an all-zero row says.
        matrix = self._matrix
        signed = [t for t in terms if t not in self._unsigned_terms]
        if any(t not in matrix for t in signed):
            bits = 0
        else:
            bits = matrix.combined(signed)
        counters.signature_seconds += time.perf_counter() - sig_start
        # One B+-tree descent per query keyword (as in SIF), rarest first.
        lists = posting_lists(
            self._trees, self._postings, rarest_first(self._store, terms)
        )
        segments_of = self._segments.get
        slot_base = self._slot_base.get
        edge_keys = self._edge_keys
        get_object = self._store.get

        def load(edge_id: int) -> List[SpatioTextualObject]:
            segments = segments_of(edge_id)
            if segments is None:
                return []  # no objects on this edge at all
            count = len(segments)
            window = (1 << count) - 1  # all-unsigned query: all pass
            if bits is not None:
                # An edge that owns no slots never received a bit.
                base = slot_base(edge_id)
                window = 0 if base is None else (bits >> base) & window
            counters.signature_tests_run += 1
            if not window:
                counters.edges_pruned_by_signature += 1
                if tracer.enabled:
                    tracer.event(
                        "signature.prune", edge=edge_id, partition="SIF-P",
                        segments=count,
                    )
                return []
            counters.edges_probed += 1
            passing = [v for v in range(count) if (window >> v) & 1]
            if tracer.enabled and len(passing) < count:
                # Partial prune: some virtual edges failed the signature
                # test, so their postings are never read — the §3.3 win.
                tracer.event(
                    "signature.partial_prune", edge=edge_id,
                    partition="SIF-P", segments=count, passing=len(passing),
                )
            key = edge_keys[edge_id]
            # Every keyword is descended first; then only the postings
            # pages of passing virtual edges are read.
            runs = [((lookup(key) or {}).get, file) for lookup, file in lists]
            matches: Set[int] = set()
            for v_idx in passing:
                matches.update(and_runs(runs, v_idx, (key, v_idx), counters))
            return sorted(map(get_object, matches), key=offset_of)

        return load

    def load_objects(
        self, edge_id: int, terms: FrozenSet[str],
        counters: Optional[LoadCounters] = None,
    ) -> List[SpatioTextualObject]:
        return self.loader(terms, counters)(edge_id)

    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        return (
            self._postings.size_bytes
            + self._tree_file.size_bytes
            + self.signature_size_bytes()
        )

    def signature_size_bytes(self) -> int:
        """Compacted signature size.

        Edge-level bits are compacted against the KD-tree exactly as in
        SIF; each partitioned edge then adds one bit per extra virtual
        edge for every signed keyword present on it.
        """
        total = 0
        extra_bits = 0
        slot_edge = self._slot_edge
        for term in self._matrix.keys():
            edges = {slot_edge[s] for s in self._matrix.slots_of(term)}
            total += self._kd.compact_size_bytes(edges)
            for edge_id in edges:
                segs = self._segments.get(edge_id)
                if segs and len(segs) > 1:
                    extra_bits += len(segs) - 1
        return total + (extra_bits + 7) // 8

    # ------------------------------------------------------------------
    # Dynamic updates
    # ------------------------------------------------------------------
    def _virtual_index(self, edge_id: int, offset: float) -> int:
        """Virtual edge containing ``offset`` (cuts are offsets)."""
        boundaries = self._boundaries.get(edge_id)
        if not boundaries:
            return 0
        return bisect.bisect_right(boundaries, offset)

    def _recompute_segments(self, edge_id: int) -> None:
        """Rebuild the positional (start, end) ranges from the cut
        offsets and the store's current visiting order.

        An emptied virtual edge keeps its slot as a ``(start, start-1)``
        range so surviving segments keep their ``v_idx`` — postings and
        signature bits reference segments by index.
        """
        boundaries = self._boundaries.setdefault(edge_id, [])
        counts = [0] * (len(boundaries) + 1)
        for obj in self._store.objects_on_edge(edge_id):
            counts[bisect.bisect_right(boundaries, obj.position.offset)] += 1
        segments: List[Tuple[int, int]] = []
        start = 0
        for count in counts:
            segments.append((start, start + count - 1))
            start += count
        self._segments[edge_id] = segments

    def insert_object(self, obj: SpatioTextualObject) -> None:
        """Insert one object's postings, bits and segment membership.

        The posting carries the virtual edge the object's offset falls
        into; :func:`append_posting` files it per keyword, in sorted
        order as IF's insert does.
        """
        edge_id = obj.position.edge_id
        v_idx = self._virtual_index(edge_id, obj.position.offset)
        posting = (
            self._edge_keys[edge_id], v_idx, obj.object_id, obj.position.offset
        )
        pages_per_term = self._pages_per_term
        for term in obj.keywords:
            if append_posting(
                self._trees, term, self._postings, self._tree_file, posting,
                width=2,
            ):
                pages_per_term[term] = pages_per_term.get(term, 0) + 1
            if term not in self._unsigned_terms:
                self._matrix.set(term, self._slot(edge_id, v_idx))
        self._recompute_segments(edge_id)

    def delete_object(self, obj: SpatioTextualObject) -> None:
        """Remove one object's postings and any orphaned bits.

        Must run after ``ObjectStore.remove`` (segment recomputation
        reads the store).  :func:`drop_posting` runs on every virtual
        edge of the keyword's tree value — it matches ``(edge,
        object_id)``, robust even if duplicate offsets straddling a cut
        made the build-time ``v_idx`` differ from what the offset
        resolves to today.  A virtual edge's bit is cleared once no
        posting for the term is left in it.
        """
        edge_id = obj.position.edge_id
        key = self._edge_keys[edge_id]
        for term in obj.keywords:
            tree = self._trees.get(term)
            value = tree.search(key) if tree is not None else None
            if value is None:
                continue
            for v_idx, run in value.items():
                left = drop_posting(
                    self._postings, run, (key, v_idx), obj.object_id
                )
                if not left and term in self._matrix:
                    self._matrix.clear(term, self._slot(edge_id, v_idx))
        self._recompute_segments(edge_id)

    def rescale_edge(self, edge_id: int, factor: float) -> None:
        """Rescale the cut offsets after an edge reweight.

        Offsets are in weight units; a reweight moves every resident
        object's offset by ``factor`` (``ObjectStore.rescale_edge_offsets``
        runs first), so the cuts move with them and virtual-edge
        membership is preserved exactly.  Stored posting offsets go
        stale, which is harmless: ``load_objects`` resolves objects
        through the store and never trusts the posting's offset.
        """
        boundaries = self._boundaries.get(edge_id)
        if boundaries:
            self._boundaries[edge_id] = [b * factor for b in boundaries]
        self._recompute_segments(edge_id)
