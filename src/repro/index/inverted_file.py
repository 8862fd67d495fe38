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

This module owns the run format and Algorithm 2's AND for IF, SIF,
SIF-G's group lists and SIF-P (:func:`build_term_tree`,
:func:`append_posting`, :func:`drop_posting`, :func:`and_runs`): no
other module looks inside a run.

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
    Any, Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Set,
    Tuple, Union,
)

from ..network.graph import RoadNetwork
from ..network.objects import ObjectStore, SpatioTextualObject
from ..obs.tracing import NULL_TRACER
from ..spatial.zorder import CURVE
from ..storage.bplustree import BPlusTree
from ..storage.pagefile import PAGE_SIZE, DiskManager, PageFile
from .base import LoadCounters, ObjectIndex, offset_of

__all__ = [
    "InvertedFileIndex",
    "EdgeKeys",
    "edge_zorder_key",
    "pack_postings",
    "build_term_tree",
    "read_run",
    "run_pages",
    "Run",
    "insert_posting",
    "append_posting",
    "drop_posting",
    "posting_lists",
    "and_runs",
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

#: One keyword's list as the AND reads it: probe -> run or ``None``,
#: and the file of the run's pages.
PostingList = Tuple[Callable[[int], Any], PageFile]


def edge_zorder_key(network: RoadNetwork, edge_id: int) -> int:
    """Unique, locality-preserving B+-tree key for an edge."""
    code = CURVE.encode_point(network.edge(edge_id).center)
    return (code << 24) | edge_id


class EdgeKeys(dict):
    """``edge_id -> edge_zorder_key``, each computed on first use.

    The key is a 16-step bit interleave of the edge's centre, and an
    edge's geometry never changes, so an index computes it once per
    edge instead of on every load, insert and delete.
    """

    def __init__(self, network: RoadNetwork) -> None:
        super().__init__()
        self._network = network

    def __missing__(self, edge_id: int) -> int:
        key = self[edge_id] = edge_zorder_key(self._network, edge_id)
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


def build_term_tree(
    file: PageFile, tree_file: PageFile, postings: List[tuple], width: int
) -> Tuple[BPlusTree, Dict[tuple, Run]]:
    """Pack one keyword's postings into ``file``, then bulk-load its
    tree into ``tree_file`` (SIF-G passes one file for both).  A leaf
    value is the edge's run, or ``{v_idx: run}`` for ``width == 2``
    (SIF-P).  Returns the tree and :func:`pack_postings`'s map."""
    runs = pack_postings(file, postings, width)
    if width == 1:
        entries = [(edge_key, run) for (edge_key,), run in runs.items()]
    else:
        per_edge: Dict[int, Dict[int, Run]] = {}
        for (edge_key, v_idx), run in runs.items():
            per_edge.setdefault(edge_key, {})[v_idx] = run
        entries = list(per_edge.items())
    tree = BPlusTree(tree_file, key_bytes=8, value_bytes=8)
    tree.bulk_load(entries)
    return tree, runs


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


def append_posting(
    trees: Dict[str, BPlusTree], term: str, file: PageFile,
    tree_file: PageFile, posting: tuple, width: int,
) -> bool:
    """File ``posting``, prefixed by its first ``width`` fields, under
    ``term``'s tree; returns whether a page was allocated.

    It joins its run's last page if that has room; otherwise a fresh
    page extends the run, a new leaf entry or a new single-leaf tree.
    A leaf's run is swapped with the uncharged :meth:`BPlusTree.replace`;
    SIF-P's ``{v_idx: run}`` is edited in place.
    """
    key = posting[0]
    tree = trees.get(term)
    value = tree.search(key) if tree is not None else None
    run = value if width == 1 or value is None else value.get(posting[1])
    if run is not None and insert_posting(
        file, run_pages(run)[-1], posting[:width], posting
    ):
        return False
    page_no = file.allocate([posting], size_bytes=POSTING_BYTES)
    run = page_no if run is None else [*run_pages(run), page_no]
    if width == 2:
        if value is not None:
            value[posting[1]] = run
            return True
        run = {posting[1]: run}
    if tree is None:
        tree = trees[term] = BPlusTree(tree_file, key_bytes=8, value_bytes=8)
        tree.bulk_load([(key, run)])
    elif value is None:
        tree.insert(key, run)
    else:
        tree.replace(key, run)
    return True


def drop_posting(
    file: PageFile, run: Run, prefix: tuple, object_id: int
) -> bool:
    """Remove ``object_id``'s postings on edge ``prefix[0]`` from the
    pages of ``run``, under any virtual edge; returns whether a posting
    of ``prefix`` is left.  A page that loses one is rewritten; none is
    reclaimed: the layout is append-only and a rebuild compacts it."""
    key = prefix[0]
    width = len(prefix)
    left = False
    for page_no in run_pages(run):
        page = file.read_unbuffered(page_no)
        kept = [p for p in page if not (p[0] == key and p[width] == object_id)]
        if len(kept) != len(page):
            file.rewrite(page_no, kept, size_bytes=len(kept) * POSTING_BYTES)
        # The page is sorted, so the prefix's run starts at its bisection.
        i = bisect_left(kept, prefix)
        left = left or (i < len(kept) and kept[i][:width] == prefix)
    return left


def posting_lists(
    trees: Dict[Any, BPlusTree], file: PageFile, terms: Sequence
) -> List[PostingList]:
    """Each keyword's ``(tree.search, file)`` in ``terms``' order (a
    keyword without a tree finds nothing), bound once per query."""
    return [
        (trees[term].search if term in trees else {}.get, file)
        for term in terms
    ]


def and_runs(
    lists: Sequence[PostingList], probe: int, prefix: tuple,
    counters: LoadCounters,
) -> Set[int]:
    """Algorithm 2's AND over one edge's (or virtual edge's) runs: the
    ids in every list, the postings read counted into ``counters``.

    Each ``lookup(probe)`` — a B+-tree descent, or a get on the leaf
    values SIF-P descended first — is followed by its run's read.  A
    list with no run empties the AND, yet every list is still looked
    up and read: IF's cost model.
    """
    loaded = 0
    matches: Optional[Set[int]] = None
    for lookup, file in lists:
        run = lookup(probe)
        if run is None:
            matches = set()
            continue
        found = read_run(file, run, prefix)
        loaded += len(found)
        ids = set(found)
        matches = ids if matches is None else matches & ids
    matches = matches or set()
    counters.count_load(loaded, matches)
    return matches


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
        file_prefix: str = "if",
        term_edges: Optional[Dict[str, List[int]]] = None,
    ) -> None:
        """``term_edges``, when given, is filled from the build's one
        walk of the store: each term's edge ids, one entry per edge, in
        edge-key order — what SIF and SIF-G build their
        :class:`~repro.index.signature.SignatureFile` from."""
        super().__init__(store)
        self._disk = disk
        self._network = store.network
        self._edge_keys = EdgeKeys(self._network)
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
            self._trees[term], runs = build_term_tree(
                self._postings, self._tree_file, staged[term], width=1
            )
            self._pages_per_term[term] = self._postings.num_pages - first_page
            if term_edges is not None:
                # The map holds the term's edge keys once each, in order.
                term_edges[term] = [edge_of[edge_key] for (edge_key,) in runs]

    # ------------------------------------------------------------------
    # Algorithm 2 (without the signature test)
    # ------------------------------------------------------------------
    @property
    def edge_keys(self) -> EdgeKeys:
        return self._edge_keys

    def lists(self, terms: Sequence[str]) -> List[PostingList]:
        """The keywords' posting lists, in ``terms``' order."""
        return posting_lists(self._trees, self._postings, terms)

    def fetcher(
        self, terms: FrozenSet[str], lists: Sequence[PostingList],
        counters: LoadCounters,
    ) -> Callable[[int], List[SpatioTextualObject]]:
        """One query's fetch: :meth:`load_objects` with ``lists`` bound,
        looked up on the instance so the benchmark's wrapper times it."""
        load_objects = self.load_objects

        def fetch(edge_id: int) -> List[SpatioTextualObject]:
            return load_objects(edge_id, terms, counters, lists)

        return fetch

    def loader(
        self, terms: FrozenSet[str], counters: Optional[LoadCounters] = None,
        tracer=NULL_TRACER,
    ) -> Callable[[int], List[SpatioTextualObject]]:
        """Algorithm 2 without the guard, the keywords' lists bound once
        in the rarest-first order — also SIF's fetch."""
        if counters is None:
            counters = self.lifetime_counters
        order = rarest_first(self._store, terms)
        return self.fetcher(terms, self.lists(order), counters)

    def load_objects(
        self, edge_id: int, terms: FrozenSet[str],
        counters: Optional[LoadCounters] = None,
        lists: Optional[Sequence[PostingList]] = None,
    ) -> List[SpatioTextualObject]:
        """Algorithm 2 without the guard; ``lists`` are the ones a
        :meth:`fetcher` bound, else ``terms``' rarest first."""
        if counters is None:
            counters = self.lifetime_counters
        if lists is None:
            lists = self.lists(rarest_first(self._store, terms))
        counters.edges_probed += 1
        key = self._edge_keys[edge_id]
        matches = and_runs(lists, key, (key,), counters)
        return sorted(map(self._store.get, matches), key=offset_of)

    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        return self._postings.size_bytes + self._tree_file.size_bytes

    def postings_pages_of(self, term: str) -> int:
        """Number of postings pages of one keyword (signature threshold)."""
        return self._pages_per_term.get(term, 0)

    # ------------------------------------------------------------------
    # Dynamic updates
    # ------------------------------------------------------------------
    def insert_object(self, obj: SpatioTextualObject) -> None:
        """Insert one new object's postings (dynamic maintenance):
        :func:`append_posting` per keyword.

        Keywords are visited in their stored, sorted order, here and in
        :meth:`delete_object`: the descents go through the buffer and
        new pages are numbered as they are allocated, so a hash order
        would make later page reads follow ``PYTHONHASHSEED``.
        """
        key = self._edge_keys[obj.position.edge_id]
        posting = (key, obj.object_id, obj.position.offset)
        pages_per_term = self._pages_per_term
        for term in obj.keywords:
            if append_posting(
                self._trees, term, self._postings, self._tree_file, posting,
                width=1,
            ):
                pages_per_term[term] = pages_per_term.get(term, 0) + 1

    def delete_object(self, obj: SpatioTextualObject) -> None:
        """Remove one object's postings (dynamic maintenance):
        :func:`drop_posting` on the edge's run of each keyword."""
        key = self._edge_keys[obj.position.edge_id]
        for term in obj.keywords:
            tree = self._trees.get(term)
            run = tree.search(key) if tree is not None else None
            if run is not None:
                drop_posting(self._postings, run, (key,), obj.object_id)
