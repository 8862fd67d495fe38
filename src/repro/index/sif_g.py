"""SIF-G — group-based indexing (paper §5.1, Fig. 9 comparison point).

"Besides the individual terms, we also build the signature file and
inverted list for the combinations of the frequent terms": every
unordered pair of the top-x most frequent terms becomes a synthetic
*group term* whose inverted list keeps only edges carrying an object
with *both* terms.  A query containing an indexed pair can use the
group list — a much more selective signature and posting set — at the
price of a large extra index (the paper budgets SIF-G ten times the
space of SIF-P's signatures and still finds SIF-P more cost-effective).
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..network.objects import ObjectStore, SpatioTextualObject
from ..obs.tracing import NULL_TRACER
from ..spatial.kdtree import KDTreePartition
from ..spatial.zorder import ZOrderCurve
from ..storage.bplustree import BPlusTree
from ..storage.pagefile import DiskManager, PageFile
from .base import GuardedLoader, LoadCounters, ObjectIndex
from .inverted_file import InvertedFileIndex, build_term_tree, posting_lists
from .signature import SignatureFile, pack_slots

__all__ = ["SIFGIndex"]


class SIFGIndex(ObjectIndex):
    """SIF plus pairwise group terms over the most frequent keywords."""

    name = "SIF-G"

    def __init__(
        self,
        store: ObjectStore,
        disk: DiskManager,
        top_terms: int = 10,
        curve: Optional[ZOrderCurve] = None,
        kd_partition: Optional[KDTreePartition] = None,
        min_postings_pages: int = 1,
        file_prefix: str = "sifg",
    ) -> None:
        super().__init__(store)
        self._curve = curve or ZOrderCurve()
        self._network = store.network
        start = time.perf_counter()
        # The signatures are built from the edges IF's one walk of the
        # store staged; nothing keeps them past this constructor.
        term_edges: Dict[str, List[int]] = {}
        self._inverted = InvertedFileIndex(
            store, disk, curve=self._curve, file_prefix=file_prefix,
            term_edges=term_edges,
        )
        if kd_partition is None:
            centers = [e.center for e in store.network.edges()]
            kd_partition = KDTreePartition(centers)
        self._kd = kd_partition
        self._signatures = SignatureFile(
            store,
            inverted=self._inverted,
            min_postings_pages=min_postings_pages,
            kd_partition=kd_partition,
            term_edges=term_edges,
        )

        freq = store.keyword_frequencies()
        ranked = sorted(freq, key=lambda t: (-freq[t], t))
        self._top_terms: List[str] = ranked[:top_terms]
        self._group_file: PageFile = disk.create_file(
            f"{file_prefix}.groups", category="inverted"
        )
        self._group_trees: Dict[FrozenSet[str], BPlusTree] = {}
        #: pair -> its edges as one int row, bit ``e`` set iff an object
        #: on edge ``e`` carries both terms.
        self._group_bits: Dict[FrozenSet[str], int] = {}
        self._build_groups()
        self.build_seconds = time.perf_counter() - start

    # ------------------------------------------------------------------
    def _build_groups(self) -> None:
        top = set(self._top_terms)
        staged: Dict[FrozenSet[str], List[Tuple[int, int, float]]] = {}
        staged_edges: Dict[FrozenSet[str], List[int]] = {}
        keys = self._inverted.edge_keys
        ordered_edges = sorted(
            self._store.edges_with_objects(), key=keys.__getitem__
        )
        for edge_id in ordered_edges:
            key = keys[edge_id]
            for obj in self._store.objects_on_edge(edge_id):
                present = sorted(obj.keywords & top)
                for i in range(len(present)):
                    for j in range(i + 1, len(present)):
                        pair = frozenset((present[i], present[j]))
                        staged.setdefault(pair, []).append(
                            (key, obj.object_id, obj.position.offset)
                        )
                        staged_edges.setdefault(pair, []).append(edge_id)
        for pair in sorted(staged, key=sorted):
            self._group_trees[pair], _runs = build_term_tree(
                self._group_file, self._group_file, staged[pair], width=1
            )
            self._group_bits[pair] = pack_slots(staged_edges[pair])

    def _cover(self, terms: FrozenSet[str]) -> Tuple[List[FrozenSet[str]], List[str]]:
        """Greedy cover of the query terms by indexed pairs + singletons."""
        remaining = set(terms)
        pairs: List[FrozenSet[str]] = []
        ordered = sorted(remaining)
        for i in range(len(ordered)):
            for j in range(i + 1, len(ordered)):
                pair = frozenset((ordered[i], ordered[j]))
                if (
                    pair in self._group_trees
                    and ordered[i] in remaining
                    and ordered[j] in remaining
                ):
                    pairs.append(pair)
                    remaining.discard(ordered[i])
                    remaining.discard(ordered[j])
        return pairs, sorted(remaining)

    # ------------------------------------------------------------------
    def loader(
        self, terms: FrozenSet[str], counters: Optional[LoadCounters] = None,
        tracer=NULL_TRACER,
    ) -> GuardedLoader:
        """The query's guard and fetch: the AND of the singles' rows and
        the covering pairs' group rows, and a fetch that intersects the
        covering lists' postings, both resolved once per query."""
        if counters is None:
            counters = self.lifetime_counters
        # Signature guard: the singles' rows ANDed with the pairs' group
        # rows into one mask, so an edge costs one shift as in SIF.
        sig_start = time.perf_counter()
        pairs, singles = self._cover(terms)
        bits = self._signatures.combined_row(singles)
        for pair in pairs:
            group = self._group_bits[pair]
            bits = group if bits is None else bits & group
        counters.signature_seconds += time.perf_counter() - sig_start
        # The covering lists: pairs, then singles.
        lists = posting_lists(self._group_trees, self._group_file, pairs)
        fetch = self._inverted.fetcher(
            terms, lists + self._inverted.lists(singles), counters
        )
        return GuardedLoader(bits, fetch, counters, tracer, self.name)

    def load_objects(
        self, edge_id: int, terms: FrozenSet[str],
        counters: Optional[LoadCounters] = None,
    ) -> List[SpatioTextualObject]:
        return self.loader(terms, counters)(edge_id)

    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        return (
            self._inverted.size_bytes()
            + self._signatures.size_bytes()
            + self.group_size_bytes()
        )

    def group_size_bytes(self) -> int:
        """Extra space of the group lists and group signatures."""
        num_edges = self._network.num_edges
        sig_bytes = len(self._group_bits) * ((num_edges + 7) // 8)
        return self._group_file.size_bytes + sig_bytes

    @property
    def signatures(self) -> SignatureFile:
        return self._signatures

    @property
    def num_groups(self) -> int:
        return len(self._group_trees)
