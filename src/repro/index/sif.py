"""SIF — the signature-based inverted file (paper §3.1).

SIF is the inverted file (IF) guarded by the in-memory edge signatures:
before any B+-tree descent, the AND-semantics signature test discards
edges that cannot contain a result.  The pruning is free (signatures
live in memory); the cost is a slightly larger index (Fig. 6(c)).

The guard is built once per query: :meth:`SIFIndex.loader` ANDs the
signed rows into one integer, the mask the expansion shifts per edge;
only an edge that passes costs a call, IF's posting fetch.
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, List, Optional

from ..network.objects import ObjectStore, SpatioTextualObject
from ..obs.tracing import NULL_TRACER
from ..spatial.kdtree import KDTreePartition
from ..spatial.zorder import ZOrderCurve
from ..storage.pagefile import DiskManager
from .base import GuardedLoader, LoadCounters, ObjectIndex
from .inverted_file import InvertedFileIndex
from .signature import SignatureFile

__all__ = ["SIFIndex"]


class SIFIndex(ObjectIndex):
    """Signature-based inverted file (index "SIF")."""

    name = "SIF"

    def __init__(
        self,
        store: ObjectStore,
        disk: DiskManager,
        curve: Optional[ZOrderCurve] = None,
        kd_partition: Optional[KDTreePartition] = None,
        min_postings_pages: int = 1,
        file_prefix: str = "sif",
    ) -> None:
        super().__init__(store)
        start = time.perf_counter()
        # The signatures are built from the edges IF's one walk of the
        # store staged; nothing keeps them past this constructor.
        term_edges: Dict[str, List[int]] = {}
        self._inverted = InvertedFileIndex(
            store, disk, curve=curve, file_prefix=file_prefix,
            term_edges=term_edges,
        )
        if kd_partition is None:
            centers = [e.center for e in store.network.edges()]
            kd_partition = KDTreePartition(centers)
        self._signatures = SignatureFile(
            store,
            inverted=self._inverted,
            min_postings_pages=min_postings_pages,
            kd_partition=kd_partition,
            term_edges=term_edges,
        )
        self.build_seconds = time.perf_counter() - start

    @property
    def signatures(self) -> SignatureFile:
        return self._signatures

    @property
    def inverted(self) -> InvertedFileIndex:
        return self._inverted

    def loader(
        self, terms: FrozenSet[str], counters: Optional[LoadCounters] = None,
        tracer=NULL_TRACER,
    ) -> GuardedLoader:
        """The query's guard and fetch: the AND of its signed rows, and
        IF's loader, both resolved once per query."""
        if counters is None:
            counters = self.lifetime_counters
        start = time.perf_counter()
        bits = self._signatures.combined_row(terms)
        counters.signature_seconds += time.perf_counter() - start
        fetch = self._inverted.loader(terms, counters)
        return GuardedLoader(bits, fetch, counters, tracer, self.name)

    def load_objects(
        self, edge_id: int, terms: FrozenSet[str],
        counters: Optional[LoadCounters] = None,
    ) -> List[SpatioTextualObject]:
        return self.loader(terms, counters)(edge_id)

    def size_bytes(self) -> int:
        return self._inverted.size_bytes() + self._signatures.size_bytes()

    def insert_object(self, obj) -> None:
        """Dynamic maintenance: postings plus signature bits."""
        self._inverted.insert_object(obj)
        for term in obj.keywords:
            self._signatures.set_bit(obj.position.edge_id, term)

    def delete_object(self, obj) -> None:
        """Dynamic maintenance: drop postings, clear orphaned bits.

        Must run *after* ``ObjectStore.remove`` — a signature bit is
        cleared only when no surviving object on the edge still carries
        the term, and that check reads the store's current state.
        """
        self._inverted.delete_object(obj)
        edge_id = obj.position.edge_id
        remaining = self._store.objects_on_edge(edge_id)
        for term in obj.keywords:
            if not any(term in o.keywords for o in remaining):
                self._signatures.clear_bit(edge_id, term)
