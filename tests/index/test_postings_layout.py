"""The postings-page layout invariant and the lookup that relies on it.

A postings page is sorted by its leading key fields — ``edge_key`` for
IF / SIF / SIF-G, ``(edge_key, v_idx)`` for SIF-P — so ``read_run``
bisects to an edge's postings instead of scanning the page.  These
tests hold the invariant under inserts and deletes, probe the places a
bisect is off by one, make sure the scan does not come back, and pin
the I/O and load counters of a fixed query list so a layout change
that moves a page or drops a descent fails here.
"""

from contextlib import contextmanager
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, SKQuery
from repro.datasets.catalog import build_dataset
from repro.index import inverted_file
from repro.index.inverted_file import (
    POSTING_BYTES,
    InvertedFileIndex,
    insert_posting,
    read_run,
    run_pages,
)
from repro.index.sif_p import SIFPIndex
from repro.network.graph import NetworkPosition
from repro.network.objects import ObjectStore
from repro.storage.pagefile import DiskManager
from tests.conftest import TINY_PROFILE, make_grid4, make_line_network
from tests.datasets.test_catalog import trees_and_rows
from tests.index.test_index_equivalence import brute_force, probe_cases

TERMS = ("a", "b", "c", "d")
TERM_SETS = [
    frozenset(c) for n in (1, 2, 3) for c in combinations(TERMS, n)
]


def postings_files(index):
    """``(page file, leading key fields)`` of every postings file."""
    if isinstance(index, SIFPIndex):
        return [(index._postings, 2)]
    if isinstance(index, InvertedFileIndex):
        return [(index._postings, 1)]
    files = [(index._inverted._postings, 1)]
    if hasattr(index, "_group_file"):
        files.append((index._group_file, 1))
    return files


def pages_of(file):
    """``(page number, payload)`` of the postings pages of ``file``
    (SIF-G keeps its group trees' nodes in the same file)."""
    pages = ((n, file.read_unbuffered(n)) for n in range(file.num_pages))
    return [(n, page) for n, page in pages if isinstance(page, list)]


def assert_pages_sorted(index):
    for file, width in postings_files(index):
        for page_no, page in pages_of(file):
            keys = [p[:width] for p in page]
            assert keys == sorted(keys), (index.name, file.name, page_no)


def assert_matches_brute_force(db, index):
    for edge in db.network.edges():
        for terms in TERM_SETS:
            got = sorted(
                o.object_id for o in index.load_objects(edge.edge_id, terms)
            )
            assert got == brute_force(db, edge.edge_id, terms), (
                index.name, edge.edge_id, sorted(terms)
            )


@contextmanager
def small_pages(postings_per_page=4):
    """Four postings to a page, so a dozen objects already share pages,
    fill them and spill runs across page boundaries."""
    with mock.patch.object(
        inverted_file, "POSTINGS_PER_PAGE", postings_per_page
    ):
        yield


term_sets = st.sets(st.sampled_from(TERMS), min_size=1, max_size=3)
inserts = st.tuples(
    st.just("insert"), st.integers(0, 11), st.floats(0.01, 0.99), term_sets
)
deletes = st.tuples(st.just("delete"), st.integers(0, 10_000))


def small_world(seed_objects):
    db = Database(make_grid4(), buffer_pages=8)
    for edge_id, fraction, terms in seed_objects:
        db.add_object(NetworkPosition(edge_id, fraction * 100.0), terms)
    db.freeze()
    return db


seed_objects = st.lists(
    st.tuples(st.integers(0, 11), st.floats(0.01, 0.99), term_sets),
    min_size=1, max_size=25,
)


class TestInvariantUnderUpdates:
    @settings(max_examples=25, deadline=None)
    @given(seed=seed_objects, ops=st.lists(inserts | deletes, max_size=12))
    def test_if_sif_sifp_stay_sorted_and_exact(self, seed, ops):
        with small_pages():
            db = small_world(seed)
            indexes = [
                db.build_index(kind, file_prefix=f"layout-{kind}")
                for kind in ("if", "sif", "sif-p")
            ]
            for index in indexes:
                assert_pages_sorted(index)
                assert_matches_brute_force(db, index)
            for op in ops:
                if op[0] == "insert":
                    _kind, edge_id, fraction, terms = op
                    db.insert_object(
                        NetworkPosition(edge_id, fraction * 100.0),
                        terms, indexes,
                    )
                else:
                    alive = sorted(o.object_id for o in db.store)
                    if not alive:
                        continue
                    db.delete_object(
                        alive[op[1] % len(alive)], indexes=indexes
                    )
                for index in indexes:
                    assert_pages_sorted(index)
                    assert_matches_brute_force(db, index)

    @settings(max_examples=15, deadline=None)
    @given(seed=seed_objects)
    def test_sif_g_static(self, seed):
        with small_pages():
            db = small_world(seed)
            index = db.build_index("sif-g", top_terms=3)
            assert_pages_sorted(index)
            assert_matches_brute_force(db, index)


@pytest.fixture()
def file():
    return DiskManager(buffer_pages=4).create_file("p", category="inverted")


class TestReadRunEdges:
    """The places a bisect is off by one."""

    def test_run_ends_one_page_and_opens_the_next(self, file):
        file.allocate([(1, 10, 0.0), (2, 11, 0.0), (5, 12, 0.0), (5, 13, 0.0)])
        file.allocate([(5, 14, 0.0), (7, 15, 0.0), (9, 16, 0.0)])
        assert read_run(file, [0, 1], (5,)) == [12, 13, 14]
        assert read_run(file, [0], (5,)) == [12, 13]
        assert read_run(file, [1], (5,)) == [14]

    def test_a_one_page_run_is_a_bare_page_number(self, file):
        """``0`` is a page like any other, and an ``int`` run reads the
        one page a one-element list reads."""
        file.allocate([(1, 10, 0.0), (2, 11, 0.0), (5, 12, 0.0), (5, 13, 0.0)])
        file.allocate([(5, 14, 0.0), (7, 15, 0.0), (9, 16, 0.0)])
        stats = file._disk.stats
        for page_no, prefix, ids in ((0, (1,), [10]), (1, (9,), [16])):
            reads = stats.logical_reads
            assert read_run(file, page_no, prefix) == ids
            assert stats.logical_reads - reads == 1
            assert read_run(file, [page_no], prefix) == ids
        assert read_run(file, 0, (5,)) == [12, 13]
        assert read_run(file, 0, (7,)) == []

    def test_run_at_index_zero_and_at_the_tail(self, file):
        file.allocate([(1, 10, 0.0), (1, 11, 0.0), (4, 12, 0.0), (9, 13, 0.0)])
        assert read_run(file, [0], (1,)) == [10, 11]
        assert read_run(file, [0], (9,)) == [13]
        assert read_run(file, [0], (4,)) == [12]

    def test_key_below_between_and_above_every_key(self, file):
        file.allocate([(3, 10, 0.0), (5, 11, 0.0), (8, 12, 0.0)])
        for absent in (0, 2, 4, 6, 9, 1 << 60):
            assert read_run(file, [0], (absent,)) == []

    def test_whole_page_is_one_run(self, file):
        file.allocate([(7, i, 0.0) for i in range(256)])
        assert read_run(file, [0], (7,)) == list(range(256))

    def test_empty_page_and_no_pages(self, file):
        file.allocate([])
        assert read_run(file, [0], (1,)) == []
        assert read_run(file, [], (1,)) == []

    def test_every_listed_page_is_read_through_the_buffer(self, file):
        disk = file._disk
        file.allocate([(1, 10, 0.0)])
        file.allocate([(2, 11, 0.0)])
        disk.stats.reset()
        read_run(file, [0, 1, 0], (2,))
        assert disk.stats.logical_reads == 3

    def test_two_field_prefix(self, file):
        file.allocate([
            (1, 0, 10, 0.0), (1, 1, 11, 0.0), (1, 1, 12, 0.0),
            (1, 3, 13, 0.0), (2, 0, 14, 0.0),
        ])
        assert read_run(file, [0], (1, 0)) == [10]
        assert read_run(file, [0], (1, 1)) == [11, 12]
        assert read_run(file, [0], (1, 2)) == []
        assert read_run(file, [0], (1, 3)) == [13]
        assert read_run(file, [0], (2, 0)) == [14]
        assert read_run(file, [0], (2, 1)) == []
        assert read_run(file, [0], (0, 9)) == []


class TestInsertPosting:
    def test_joins_the_end_of_its_run(self, file):
        file.allocate([(1, 10, 0.0), (1, 11, 0.0), (4, 12, 0.0), (9, 13, 0.0)])
        page = file.read_unbuffered(0)
        assert insert_posting(file, 0, (1,), (1, 20, 0.5))
        assert page[:3] == [(1, 10, 0.0), (1, 11, 0.0), (1, 20, 0.5)]
        assert insert_posting(file, 0, (9,), (9, 21, 0.5))
        assert page[-1] == (9, 21, 0.5)
        # smaller oid: still last
        assert insert_posting(file, 0, (4,), (4, 3, 0.5))
        assert page[3:5] == [(4, 12, 0.0), (4, 3, 0.5)]

    def test_key_new_to_the_page(self, file):
        file.allocate([(3, 10, 0.0), (5, 11, 0.0)])
        insert_posting(file, 0, (0,), (0, 1, 0.0))
        insert_posting(file, 0, (4,), (4, 2, 0.0))
        insert_posting(file, 0, (7,), (7, 3, 0.0))
        assert [p[0] for p in file.read_unbuffered(0)] == [0, 3, 4, 5, 7]
        file.allocate([])
        insert_posting(file, 1, (2,), (2, 1, 0.0))
        assert file.read_unbuffered(1) == [(2, 1, 0.0)]

    def test_two_field_prefix(self, file):
        file.allocate([(1, 0, 10, 0.0), (1, 2, 11, 0.0), (2, 0, 12, 0.0)])
        insert_posting(file, 0, (1, 1), (1, 1, 20, 0.0))
        insert_posting(file, 0, (1, 2), (1, 2, 21, 0.0))
        assert [p[:3] for p in file.read_unbuffered(0)] == [
            (1, 0, 10), (1, 1, 20), (1, 2, 11), (1, 2, 21), (2, 0, 12),
        ]

    def test_charges_one_write_and_resizes_the_page(self, file):
        file.allocate([(1, 10, 0.0)], size_bytes=POSTING_BYTES)
        stats = file._disk.stats
        writes, reads = stats.writes, stats.logical_reads
        assert insert_posting(file, 0, (1,), (1, 11, 0.0))
        assert stats.writes - writes == 1
        assert stats.logical_reads == reads
        assert file._pages[0].size_bytes == 2 * POSTING_BYTES

    def test_full_page_is_left_alone(self, file):
        full = [(1, i, 0.0) for i in range(inverted_file.POSTINGS_PER_PAGE)]
        file.allocate(list(full), size_bytes=len(full) * POSTING_BYTES)
        writes = file._disk.stats.writes
        assert not insert_posting(file, 0, (1,), (1, 999, 0.0))
        assert file.read_unbuffered(0) == full
        assert file._disk.stats.writes == writes


def shared_page_store(postings):
    """A line network whose four edges share one postings page of
    term ``t``: ``postings`` objects, spread round-robin."""
    store = ObjectStore(make_line_network())
    for i in range(postings):
        store.add(NetworkPosition(i % 4, 1.0 + i // 4), {"t"})
    store.freeze()
    return store


def first_edge_by_key(index):
    return min(range(4), key=index._edge_keys.__getitem__)


@pytest.mark.parametrize("cls", [InvertedFileIndex, SIFPIndex])
class TestSharedPageUpdates:
    def test_insert_for_first_edge_of_a_full_but_one_page(self, cls):
        store = shared_page_store(255)
        index = cls(store, DiskManager(buffer_pages=8))
        assert index._postings.num_pages == 1
        edge_id = first_edge_by_key(index)
        # The old ``append`` left this posting behind every other
        # edge's: sorted no more, and invisible to a bisect.
        obj = store.add(NetworkPosition(edge_id, 99.0), {"t"})
        store.resort_edge(edge_id)
        index.insert_object(obj)
        assert index._postings.num_pages == 1
        assert len(index._postings.read_unbuffered(0)) == 256
        assert_pages_sorted(index)
        terms = frozenset({"t"})
        for edge in range(4):
            assert index.load_objects(edge, terms) == list(
                store.objects_on_edge(edge)
            )
        # The page is full now: the next posting of that edge opens a
        # page of its own, linked behind the shared one.
        obj = store.add(NetworkPosition(edge_id, 99.5), {"t"})
        store.resort_edge(edge_id)
        index.insert_object(obj)
        assert index._postings.num_pages == 2
        assert index.load_objects(edge_id, terms) == list(
            store.objects_on_edge(edge_id)
        )
        # The edge's run was page 0, an ``int``; now it is both pages.
        run = index._trees["t"].search(index._edge_keys[edge_id])
        if isinstance(run, dict):  # SIF-P: {v_idx: run}
            (run,) = run.values()
        assert run == [0, 1]

    def test_page_emptied_by_deletes_then_refilled(self, cls):
        store = shared_page_store(8)
        index = cls(store, DiskManager(buffer_pages=8))
        terms = frozenset({"t"})
        for obj in list(store):
            store.remove(obj.object_id)
            index.delete_object(obj)
        assert index._postings.read_unbuffered(0) == []
        for edge in range(4):
            assert index.load_objects(edge, terms) == []
        obj = store.add(NetworkPosition(2, 5.0), {"t"})
        store.resort_edge(2)
        index.insert_object(obj)
        assert index.load_objects(2, terms) == [obj]
        assert index.load_objects(1, terms) == []

    def test_insert_into_a_non_full_page_is_charged_and_sized(self, cls):
        """One page write per keyword, and the page's recorded size
        follows its postings — as a delete on the same page does."""
        store = ObjectStore(make_line_network())
        for i in range(6):
            store.add(NetworkPosition(i % 2, 1.0 + i), {"t", "u"})
        store.freeze()
        disk = DiskManager(buffer_pages=8)
        index = cls(store, disk)
        pages = index._postings._pages
        assert [p.size_bytes for p in pages] == [6 * POSTING_BYTES] * 2
        obj = store.add(NetworkPosition(0, 50.0), {"t", "u"})
        store.resort_edge(0)
        writes = disk.stats.writes
        index.insert_object(obj)
        assert disk.stats.writes - writes == 2
        assert index._postings.num_pages == 2
        assert [p.size_bytes for p in pages] == [7 * POSTING_BYTES] * 2
        assert [len(p.payload) for p in pages] == [7, 7]


    def test_updates_visit_keywords_in_sorted_order(self, cls):
        """New pages are numbered as they are allocated and descents go
        through the buffer, so a frozenset's order would make later
        page reads follow ``PYTHONHASHSEED``."""
        store = shared_page_store(8)
        index = cls(store, DiskManager(buffer_pages=8))
        terms = [f"new{i}" for i in range(8)]
        obj = store.add(NetworkPosition(1, 50.0), set(terms))
        store.resort_edge(1)
        index.insert_object(obj)
        pages = [first_page_of(index, term, 1) for term in terms]
        assert pages == sorted(pages)


def runs_of(tree):
    """Every run a tree's leaves hold, SIF-P's ``{v_idx: run}`` flattened."""
    for _key, value in tree.items():
        if isinstance(value, dict):
            yield from value.values()
        else:
            yield value


@pytest.fixture(scope="module")
def syn_small():
    return build_dataset("SYN", scale=0.1)


@pytest.mark.parametrize("kind", ["if", "sif", "sif-g", "sif-p"])
def test_a_run_on_one_page_is_its_page_number(syn_small, kind):
    """The build files a run on one page as the bare ``int`` — no
    one-element lists, in a tree leaf or inside SIF-P's dicts — and a
    run across pages as consecutive page numbers."""
    index = syn_small.build_index(kind, file_prefix=f"runs-{kind}")
    trees, _rows = trees_and_rows(index)
    runs = [run for tree in trees.values() for run in runs_of(tree)]
    spanning = [run for run in runs if type(run) is not int]
    assert len(spanning) < len(runs)
    for run in spanning:
        assert type(run) is list and len(run) >= 2, run
        assert run == list(range(run[0], run[0] + len(run))), run


def first_page_of(index, term, edge_id):
    """First postings page of ``(term, edge)`` in ``index``'s tree."""
    value = index._trees[term].search(index._edge_keys[edge_id])
    if isinstance(value, dict):  # SIF-P: {v_idx: run}
        (value,) = value.values()
    return run_pages(value)[0]


class NoScan(list):
    """A page that can be indexed, sliced and bisected, never iterated."""

    def __iter__(self):
        raise AssertionError("a postings page was scanned")


def test_load_objects_never_scans_a_page(tiny_db):
    """The whole-page ``for posting in page`` loop must not come back."""
    indexes = [
        tiny_db.build_index(kind, file_prefix=f"noscan-{kind}")
        for kind in ("if", "sif", "sif-p")
    ]
    indexes.append(
        tiny_db.build_index("sif-g", top_terms=8, file_prefix="noscan-sif-g")
    )
    cases = probe_cases(tiny_db, num_cases=120, seed=17)
    for index in indexes:
        for file, _width in postings_files(index):
            for page_no, page in pages_of(file):
                file.rewrite(page_no, NoScan(page))
        for edge_id, terms in cases:
            got = sorted(
                o.object_id for o in index.load_objects(edge_id, terms)
            )
            assert got == brute_force(tiny_db, edge_id, terms), index.name


#: Summed over :func:`pinned_queries` on a private copy of the tiny
#: dataset holding only the pinned index, buffer cleared first.  The
#: copy is private because the buffer rule counts every index built on
#: a database: on the shared ``tiny_db`` the capacity grows with each
#: build, so ``physical_reads`` would follow test order (SIF-P 22 → 12
#: in suite order).  Alone with one index the rule gives the 8-page
#: floor (2 % of ≤ 355 pages), so these are the numbers read off the
#: commit before the lookup changed (PR 16); the only number that
#: moved with it is SIF / SIF-P ``physical_reads``, 23 there, because
#: terms are now fetched rarest-first instead of in string-hash order.
PINS = {
    "if": dict(logical_reads=247, physical_reads=22, objects_loaded=197,
               false_hit_objects=40),
    "sif": dict(logical_reads=215, physical_reads=22, objects_loaded=165,
                false_hit_objects=8),
    "sif-p": dict(logical_reads=223, physical_reads=22, objects_loaded=161,
                  false_hit_objects=8),
    "sif-g": dict(logical_reads=174, physical_reads=19, objects_loaded=110,
                  false_hit_objects=3),
    # The two baselines, as read when their rows were added (PR 24).
    "ir": dict(logical_reads=851, physical_reads=199, objects_loaded=384,
               false_hit_objects=141),
    "ccam": dict(logical_reads=265, physical_reads=187, objects_loaded=458,
                 false_hit_objects=228),
}


def pinned_queries(db):
    """Eleven SK range queries from evenly spaced nodes over the five
    most frequent terms, one to three keywords each."""
    freq = db.store.keyword_frequencies()
    ranked = sorted(freq, key=lambda t: (-freq[t], t))
    return [
        SKQuery.create(
            db.network.node_position(node),
            ranked[i % 5 : i % 5 + 1 + i % 3],
            1500.0,
        )
        for i, node in enumerate(range(0, 220, 20))
    ]


@pytest.mark.parametrize("kind", sorted(PINS))
def test_io_and_load_counters_are_pinned(kind):
    db = build_dataset(TINY_PROFILE)
    index = db.build_index(kind)
    assert db.disk.buffer.capacity == 8
    db.disk.clear_buffer()
    got = dict.fromkeys(PINS[kind], 0)
    results = 0
    for query in pinned_queries(db):
        result = db.sk_search(index, query)
        got["logical_reads"] += result.stats.io.logical_reads
        got["physical_reads"] += result.stats.io.physical_reads
        got["objects_loaded"] += result.stats.objects_loaded
        got["false_hit_objects"] += result.stats.false_hit_objects
        results += len(result)
    assert got == PINS[kind]
    assert results == 71
