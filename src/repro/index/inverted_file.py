"""IF — the inverted file over edges (paper §3.1).

For each keyword ``t`` the objects containing ``t`` are kept with their
edges in a disk-resident B+-tree whose key is the Z-order code of the
edge's centre point (ties broken by edge id so keys stay unique while
preserving spatial locality).  Leaf values point at postings pages; the
postings of one keyword are packed into pages in edge-key order, so
spatially close edges share pages (the Z-order clustering the paper
relies on) and small posting lists do not waste whole pages.  A leaf
value is a *run*: the bare ``int`` page number when the edge's postings
sit on one page — all but 89 of SYN's 273 294 — and a list of page
numbers, in page order, only when they continue onto later pages.

``load_objects`` implements Algorithm 2 without the signature test:
every query keyword requires a B+-tree descent, and the postings of
every query keyword on the edge are fetched before the
AND-intersection — which is exactly why false hits hurt IF and motivate
SIF.

Layout invariant: **a postings page is sorted by its leading key
fields** — ``edge_key`` here and in SIF-G's group lists,
``(edge_key, v_idx)`` in SIF-P.  :func:`pack_postings` writes pages
that way, :func:`insert_posting` keeps them that way and a delete only
removes entries, so :func:`read_run` finds an edge's postings by
bisection instead of walking the ~180 postings of ~165 other edges that
share its page.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from collections import defaultdict
from operator import itemgetter
from typing import (
    Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple, Union,
)

from ..network.graph import RoadNetwork
from ..network.objects import ObjectStore, SpatioTextualObject
from ..spatial.zorder import ZOrderCurve
from ..storage.bplustree import BPlusTree
from ..storage.pagefile import PAGE_SIZE, DiskManager, PageFile
from .base import LoadCounters, ObjectIndex

__all__ = [
    "InvertedFileIndex",
    "EdgeKeys",
    "edge_zorder_key",
    "pack_postings",
    "read_run",
    "run_pages",
    "Run",
    "insert_posting",
    "rarest_first",
    "POSTING_BYTES",
    "POSTINGS_PER_PAGE",
]

#: Bytes per posting: edge key, object id and offset.
POSTING_BYTES = 16
POSTINGS_PER_PAGE = PAGE_SIZE // POSTING_BYTES

#: A posting: ``(edge_key, object_id, offset)``.
Posting = Tuple[int, int, float]

#: The pages of one prefix's postings: one page number, or a list of
#: them in page order when the run continues onto later pages.
Run = Union[int, List[int]]


def edge_zorder_key(curve: ZOrderCurve, network: RoadNetwork, edge_id: int) -> int:
    """Unique, locality-preserving B+-tree key for an edge."""
    code = curve.encode_point(network.edge(edge_id).center)
    return (code << 24) | edge_id


class EdgeKeys(dict):
    """``edge_id -> edge_zorder_key``, each computed on first use.

    The key is a 16-step bit interleave of the edge's centre, and an
    edge's geometry never changes, so an index computes it once per
    edge instead of on every load, insert and delete.
    """

    def __init__(self, curve: ZOrderCurve, network: RoadNetwork) -> None:
        super().__init__()
        self._curve = curve
        self._network = network

    def __missing__(self, edge_id: int) -> int:
        key = self[edge_id] = edge_zorder_key(
            self._curve, self._network, edge_id
        )
        return key


def pack_postings(
    file: PageFile, postings: List[tuple], width: int = 1
) -> Dict[tuple, Run]:
    """Pack postings (sorted by their prefix) into pages of ``file``.

    A posting is filed under its *prefix*, its first ``width`` fields:
    ``(edge_key,)`` by default, ``(edge_key, v_idx)`` for SIF-P.
    Returns ``prefix -> run``, the page number holding that prefix's
    postings, or the list of them in page order for a prefix that
    continues onto later pages — the runs :func:`read_run` takes.
    Pages are shared between consecutive prefixes, so a page that
    closes one run opens the next.  The input is sorted, so a prefix
    that ended never returns: each page is filed under its distinct
    prefixes, of which only the first can have started on an earlier
    page, and the map comes out in prefix order.
    """
    prefix_pages: Dict[tuple, Run] = {}
    for start in range(0, len(postings), POSTINGS_PER_PAGE):
        chunk = postings[start : start + POSTINGS_PER_PAGE]
        page_no = file.allocate(chunk, size_bytes=len(chunk) * POSTING_BYTES)
        prefixes = _distinct_prefixes(chunk, width)
        if start:
            first = next(prefixes)
            pages = prefix_pages.get(first)
            if pages is None:
                prefix_pages[first] = page_no
            elif pages.__class__ is int:
                prefix_pages[first] = [pages, page_no]
            else:
                pages.append(page_no)
        for prefix in prefixes:
            prefix_pages[prefix] = page_no
    return prefix_pages


def _distinct_prefixes(page: List[tuple], width: int) -> Iterator[tuple]:
    """The distinct ``width``-field prefixes of a sorted page, in order."""
    if width == 1:
        # An int hashes faster than a tuple: deduplicate the bare keys.
        return zip(dict.fromkeys(map(itemgetter(0), page)))
    return iter(dict.fromkeys(map(itemgetter(*range(width)), page)))


def run_pages(pages: Run) -> Sequence[int]:
    """The page numbers of a run, in page order."""
    return (pages,) if pages.__class__ is int else pages


def read_run(file: PageFile, pages: Run, prefix: tuple) -> List[int]:
    """Object ids of the postings filed under ``prefix`` on ``pages``.

    ``pages`` is a run as :func:`pack_postings` files it: one page
    number, or a sequence of them.  Every page is read through the
    buffer, in order; inside it the run is found by bisection — a bare
    prefix sorts before every posting that extends it, so the
    comparison stays in C — and only the run is touched:
    O(log page + matches).  The object id is the field right after the
    prefix.
    """
    width = len(prefix)
    ids: List[int] = []
    if pages.__class__ is int:  # run_pages inline: this is the query path
        pages = (pages,)
    for page_no in pages:
        page = file.read(page_no)
        i = bisect_left(page, prefix)
        while i < len(page) and page[i][:width] == prefix:
            ids.append(page[i][width])
            i += 1
    return ids


def insert_posting(
    file: PageFile, page_no: int, prefix: tuple, posting: tuple
) -> bool:
    """Add ``posting`` to page ``page_no`` unless the page is full.

    The posting joins the end of the run of ``prefix`` — the run ends
    where the prefix with its last field (an integer) bumped would go —
    so the page stays sorted, and the page write is charged and the
    page resized as a delete's is.  Returns ``False``, with nothing
    written, if the page has no room: the caller opens a new page.
    """
    page = file.read_unbuffered(page_no)
    if len(page) >= POSTINGS_PER_PAGE:
        return False
    after = prefix[:-1] + (prefix[-1] + 1,)
    page.insert(bisect_left(page, after), posting)
    file.rewrite(page_no, size_bytes=len(page) * POSTING_BYTES)
    return True


def rarest_first(store: ObjectStore, terms: FrozenSet[str]) -> List[str]:
    """Query terms by ascending document frequency, ties by term.

    The order an index descends and fetches its keywords in.  It has to
    be *some* fixed order: a frozenset's follows ``PYTHONHASHSEED``, and
    with it which pages the small LRU buffer still holds, so physical
    reads would differ between two runs of one workload.  Rarest first
    is the order an AND wants; every term is still descended and
    fetched — that is IF's cost model in the paper.
    """
    # The second sort is stable, so equal frequencies stay in term order.
    return sorted(sorted(terms), key=store.document_frequency)


class InvertedFileIndex(ObjectIndex):
    """Per-keyword B+-trees of edge postings (index "IF")."""

    name = "IF"

    def __init__(
        self,
        store: ObjectStore,
        disk: DiskManager,
        curve: Optional[ZOrderCurve] = None,
        file_prefix: str = "if",
        term_edges: Optional[Dict[str, List[int]]] = None,
    ) -> None:
        """``term_edges``, when given, is filled from the build's one
        walk of the store: each term's edge ids, one entry per edge, in
        edge-key order — what SIF and SIF-G build their
        :class:`~repro.index.signature.SignatureFile` from."""
        super().__init__(store)
        self._disk = disk
        self._curve = curve or ZOrderCurve()
        self._network = store.network
        self._edge_keys = EdgeKeys(self._curve, self._network)
        self._trees: Dict[str, BPlusTree] = {}
        self._pages_per_term: Dict[str, int] = {}
        self._postings: PageFile = disk.create_file(
            f"{file_prefix}.postings", category="inverted"
        )
        self._tree_file: PageFile = disk.create_file(
            f"{file_prefix}.trees", category="inverted"
        )
        start = time.perf_counter()
        self._build(term_edges)
        self.build_seconds = time.perf_counter() - start

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self, term_edges: Optional[Dict[str, List[int]]]) -> None:
        # term -> postings in edge-key order
        staged: Dict[str, List[Posting]] = defaultdict(list)
        keys = self._edge_keys
        edge_of: Dict[int, int] = {}
        objects_on_edge = self._store.objects_on_edge
        for edge_id in sorted(
            self._store.edges_with_objects(), key=keys.__getitem__
        ):
            key = keys[edge_id]
            edge_of[key] = edge_id
            for obj in objects_on_edge(edge_id):
                posting = (key, obj.object_id, obj.position.offset)
                for term in obj.keywords:
                    staged[term].append(posting)

        for term in sorted(staged):
            # Every term starts on a fresh page.
            first_page = self._postings.num_pages
            edge_pages = pack_postings(self._postings, staged[term])
            tree = BPlusTree(self._tree_file, key_bytes=8, value_bytes=8)
            tree.bulk_load([
                (edge_key, pages) for (edge_key,), pages in edge_pages.items()
            ])
            self._trees[term] = tree
            self._pages_per_term[term] = self._postings.num_pages - first_page
            if term_edges is not None:
                # The map holds the term's edge keys once each, in order.
                term_edges[term] = [
                    edge_of[edge_key] for (edge_key,) in edge_pages
                ]

    # ------------------------------------------------------------------
    # Algorithm 2 (without the signature test)
    # ------------------------------------------------------------------
    def load_objects(
        self, edge_id: int, terms: FrozenSet[str],
        counters: Optional[LoadCounters] = None,
        order: Optional[Sequence[str]] = None,
    ) -> List[SpatioTextualObject]:
        """Algorithm 2 without the guard.  ``order`` is
        ``rarest_first(store, terms)`` when a caller that fetches many
        edges for one query (SIF's loader) resolved it already."""
        if counters is None:
            counters = self.lifetime_counters
        if order is None:
            order = rarest_first(self._store, terms)
        counters.edges_probed += 1
        key = self._edge_keys[edge_id]
        loaded_total = 0
        intersection: Optional[Set[int]] = None
        for term in order:
            tree = self._trees.get(term)
            pages = tree.search(key) if tree is not None else None
            if pages is None:
                # The keyword never occurs on this edge: the descent was
                # still paid, and postings already fetched are wasted.
                intersection = set()
                continue
            loaded = read_run(self._postings, pages, (key,))
            loaded_total += len(loaded)
            ids = set(loaded)
            intersection = ids if intersection is None else intersection & ids
        counters.objects_loaded += loaded_total
        result_ids = intersection or set()
        if not result_ids and loaded_total:
            counters.false_hits += 1
            counters.false_hit_objects += loaded_total
        counters.results_returned += len(result_ids)
        out = [self._store.get(oid) for oid in result_ids]
        out.sort(key=lambda o: o.position.offset)
        return out

    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        return self._postings.size_bytes + self._tree_file.size_bytes

    def has_term(self, term: str) -> bool:
        return term in self._trees

    def postings_pages_of(self, term: str) -> int:
        """Number of postings pages of one keyword (signature threshold)."""
        return self._pages_per_term.get(term, 0)

    # ------------------------------------------------------------------
    # Dynamic updates
    # ------------------------------------------------------------------
    def insert_object(self, obj: SpatioTextualObject) -> None:
        """Insert one new object's postings (dynamic maintenance).

        For each keyword the posting joins the end of the edge's run
        on its last postings page if that page has free space (the
        page stays sorted by edge key), otherwise a fresh page is
        allocated and linked from the keyword's B+-tree: the run's leaf
        value becomes its page list plus the new page, a one-page run
        the list of its two (:meth:`BPlusTree.replace`, uncharged, as an
        in-place edit of the value was).  New keywords
        get a fresh single-leaf tree.  Keywords are visited in sorted
        order, here and in :meth:`delete_object`: the descents go
        through the buffer and new pages are numbered as they are
        allocated, so a frozenset's order would make later page reads
        follow ``PYTHONHASHSEED``.
        """
        key = self._edge_keys[obj.position.edge_id]
        posting = (key, obj.object_id, obj.position.offset)
        for term in sorted(obj.keywords):
            tree = self._trees.get(term)
            if tree is None:
                page_no = self._postings.allocate(
                    [posting], size_bytes=POSTING_BYTES
                )
                tree = BPlusTree(self._tree_file, key_bytes=8, value_bytes=8)
                tree.bulk_load([(key, page_no)])
                self._trees[term] = tree
                self._pages_per_term[term] = 1
                continue
            pages = tree.search(key)
            if pages is None:
                page_no = self._postings.allocate(
                    [posting], size_bytes=POSTING_BYTES
                )
                tree.insert(key, page_no)
                self._pages_per_term[term] = self._pages_per_term.get(term, 0) + 1
                continue
            if not insert_posting(
                self._postings, run_pages(pages)[-1], (key,), posting
            ):
                page_no = self._postings.allocate(
                    [posting], size_bytes=POSTING_BYTES
                )
                tree.replace(key, [*run_pages(pages), page_no])
                self._pages_per_term[term] = self._pages_per_term.get(term, 0) + 1

    def delete_object(self, obj: SpatioTextualObject) -> None:
        """Remove one object's postings (dynamic maintenance).

        Postings matching ``(edge, object_id)`` are filtered out of the
        edge's pages in place.  Pages are *not* reclaimed when they
        empty — like the insert path, the layout is append-only and a
        rebuild compacts it; emptied pages simply stop yielding
        postings.  Filtering keys on the edge too because postings
        pages are shared between Z-order-adjacent edges; it keeps the
        survivors in order.
        """
        key = self._edge_keys[obj.position.edge_id]
        for term in sorted(obj.keywords):
            tree = self._trees.get(term)
            pages = tree.search(key) if tree is not None else None
            if pages is None:
                continue
            for page_no in run_pages(pages):
                payload = self._postings.read_unbuffered(page_no)
                kept = [
                    p for p in payload
                    if not (p[0] == key and p[1] == obj.object_id)
                ]
                if len(kept) != len(payload):
                    self._postings.rewrite(
                        page_no, kept, size_bytes=len(kept) * POSTING_BYTES
                    )
