"""Tests for the dataset catalog (Table 2 profiles)."""

import gc
import hashlib

import pytest

from repro.core import database
from repro.datasets import catalog
from repro.datasets.catalog import PROFILES, DatasetProfile, build_dataset, build_network
from repro.errors import DatasetError, QueryError


class TestProfiles:
    def test_all_four_paper_datasets_exist(self):
        assert set(PROFILES) == {"NA", "SF", "TW", "SYN"}

    def test_profiles_mirror_paper_shape(self):
        """Relative dataset properties from the paper's Table 2."""
        na, sf, tw = PROFILES["NA"], PROFILES["SF"], PROFILES["TW"]
        # TW is the biggest corpus with the biggest vocabulary.
        assert tw.num_objects > na.num_objects
        assert tw.vocabulary_size > na.vocabulary_size > sf.vocabulary_size
        # SF has by far the richest per-object keyword sets.
        assert sf.avg_keywords > tw.avg_keywords > na.avg_keywords

    def test_scaled(self):
        p = PROFILES["NA"].scaled(0.5)
        assert p.num_nodes == PROFILES["NA"].num_nodes // 2
        assert p.num_objects == PROFILES["NA"].num_objects // 2

    def test_scaled_invalid(self):
        with pytest.raises(DatasetError):
            PROFILES["NA"].scaled(0)

    def test_build_network_kinds(self):
        grid = build_network(PROFILES["NA"].scaled(0.05))
        planar = build_network(PROFILES["SF"].scaled(0.05))
        assert grid.num_nodes > 0
        assert planar.num_nodes > 0
        bad = DatasetProfile("X", "moebius", 10, 3, 10, 10, 2)
        with pytest.raises(DatasetError):
            build_network(bad)


class TestBuildDataset:
    def test_by_name_with_scale(self):
        db = build_dataset("NA", scale=0.05)
        stats = db.dataset_statistics()
        assert stats["num_objects"] > 0
        assert stats["num_nodes"] > 0

    def test_unknown_name(self):
        with pytest.raises(DatasetError):
            build_dataset("MARS")

    def test_overrides(self):
        db = build_dataset("SYN", scale=0.05, num_objects=123)
        assert db.dataset_statistics()["num_objects"] == 123

    def test_determinism(self):
        a = build_dataset("SYN", scale=0.05)
        b = build_dataset("SYN", scale=0.05)
        assert a.dataset_statistics() == b.dataset_statistics()
        for oa, ob in zip(a.store, b.store):
            assert oa.position == ob.position
            assert oa.keywords == ob.keywords

    def test_database_is_frozen_and_queryable(self):
        db = build_dataset("SYN", scale=0.05)
        index = db.build_index("sif")
        from repro.workloads.queries import WorkloadConfig, generate_sk_queries

        q = generate_sk_queries(db, WorkloadConfig(num_queries=1, seed=1))[0]
        db.sk_search(index, q)  # must not raise


@pytest.fixture(params=[True, False], ids=["gc-enabled", "gc-disabled"])
def collector(request):
    """The caller's collector state, set for the test and put back."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


def spy_on_collector(monkeypatch, module, name):
    """Record ``gc.isenabled()`` each time ``module.name`` is called."""
    seen = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return seen


class TestBulkBuildsPauseTheCollector:
    """Both builders run with the cyclic collector off and hand the
    caller back the state it had, whether or not the build raised."""

    def test_paused_inside_each_build(self, collector, monkeypatch):
        populating = spy_on_collector(monkeypatch, catalog, "populate_objects")
        indexing = spy_on_collector(monkeypatch, database, "InvertedFileIndex")
        db = build_dataset("SYN", scale=0.05)
        db.build_index("if")
        assert populating == indexing == [False]

    def test_state_restored_after_the_builds(self, collector):
        db = build_dataset("SYN", scale=0.05)
        assert gc.isenabled() is collector
        db.build_index("sif")
        assert gc.isenabled() is collector

    def test_state_restored_when_a_build_raises(self, collector):
        with pytest.raises(DatasetError):
            build_dataset("SYN", scale=0.05, num_objects=0)
        assert gc.isenabled() is collector
        db = build_dataset("SYN", scale=0.05)
        with pytest.raises(QueryError):
            db.build_index("nope")
        assert gc.isenabled() is collector


def dataset_digest(db) -> str:
    """sha-256 over every edge and every object, by id."""
    h = hashlib.sha256()
    for e in sorted(db.network.edges(), key=lambda e: e.edge_id):
        h.update(repr((e.edge_id, e.n1, e.n2, e.weight)).encode())
    for o in sorted(db.store, key=lambda o: o.object_id):
        h.update(repr((
            o.object_id, o.position.edge_id, o.position.offset,
            sorted(o.keywords),
        )).encode())
    return h.hexdigest()


#: Read off the commit before PR 20 (``Generator.choice`` keyword draws,
#: ``cKDTree`` wiring).  Everything recorded downstream — the
#: ``perf/golden`` digests, ``benchmarks/results``, the page counts CI
#: compares — is a function of these bytes.  To change the generators on
#: purpose: new literals here, and ``perf/golden`` re-recorded in a
#: benchmark-only PR (DESIGN.md §2, "Generator output is pinned").
PINNED_DIGESTS = {
    ("SYN", 0.1): "44e99343ed97e6a62aea05677aee96d2b23e04dd479496a55c24e3634ee4f56d",
    ("NA", 0.1): "f0261b74fa677dfcef19ba9fe099bfa4ecaf09bd21fe5be81d7d5b752fae3676",
    ("SF", 0.1): "29334ace04c91922f787273c79329214f21198d17a15ce2a2ce09446d8d286dc",
    ("TW", 0.1): "4efc45c4a9e36148152e38aa13350d6148cf55c1a07eba9b0ebed747fbe6b06c",
    # The dataset perf/ and the figure suite run on.
    ("SYN", 1.0): "b5d68f4f384e640dd0c09a353217eeaf61548a281b7b45f8978d0f031e04ef93",
}


class TestGeneratorOutputIsPinned:
    @pytest.mark.parametrize("name,scale", sorted(PINNED_DIGESTS))
    def test_every_edge_and_object(self, name, scale):
        db = build_dataset(name, scale=scale)
        assert dataset_digest(db) == PINNED_DIGESTS[(name, scale)]


def _row_ints(matrix):
    """Each signature row (one int), keyed by term."""
    return {term: matrix.combined((term,)) for term in matrix.keys()}


def trees_and_rows(index):
    """``(name -> B+-tree, name -> row int)`` of an IF-family index."""
    if index.name == "IF":
        return dict(index._trees), {}
    if index.name == "SIF-P":
        return dict(index._trees), _row_ints(index._matrix)
    trees = dict(index._inverted._trees)
    rows = _row_ints(index.signatures.matrix)
    if index.name == "SIF-G":
        for pair, tree in index._group_trees.items():
            trees["group:" + "+".join(sorted(pair))] = tree
        for pair, row in index._group_bits.items():
            rows["group:" + "+".join(sorted(pair))] = row
    return trees, rows


def _as_page_list(value):
    """A leaf value as the page list it names: a one-page run (an
    ``int``) as ``[page]``, inside SIF-P's ``{v_idx: run}`` too."""
    if isinstance(value, int):
        return [value]
    if isinstance(value, dict):
        return {k: _as_page_list(v) for k, v in value.items()}
    return value


def index_layout_digest(db, kind) -> str:
    """sha-256 over what ``db.build_index(kind)`` writes.

    Every page of the files the build creates (payload and
    ``size_bytes``; a B+-tree node as its fields), each tree's root
    page and height, each signature row as an int keyed by term — the
    order rows sit in may follow the hash seed, their bits may not —
    and the index's ``size_bytes()``.  A leaf value is hashed as the
    page list it names, so how a run is held in memory is not part of
    the layout; which pages it names is.
    """
    before = {f.name for f in db.disk.files()}
    index = db.build_index(kind)
    files = [f for f in db.disk.files() if f.name not in before]
    return layout_digest(index, files)


def layout_digest(index, files) -> str:
    """:func:`index_layout_digest` of an index as it stands: ``files``
    are its page files, in creation order."""
    h = hashlib.sha256()
    for file in files:
        h.update(file.name.encode())
        for page in file._pages:
            body = page.payload
            if not isinstance(body, list):
                body = (body.leaf, body.keys,
                        [_as_page_list(v) for v in body.values],
                        body.children, body.next_leaf)
            h.update(repr((page.page_no, page.size_bytes, body)).encode())
    trees, rows = trees_and_rows(index)
    for name in sorted(trees):
        tree = trees[name]
        h.update(repr((name, tree._root_page, tree.height)).encode())
    for name in sorted(rows):
        h.update(repr((name, rows[name])).encode())
    h.update(repr(index.size_bytes()).encode())
    return h.hexdigest()


#: What ``build_index`` writes on SYN at scale 0.1, read off the commit
#: before the bulk-load staging (one store walk for IF and the
#: signatures, postings filed per page).  Query page reads, the
#: ``perf/golden`` digests and the figure CSVs all follow from these
#: pages; change them only on purpose (DESIGN.md §2, "Index layout is
#: pinned").
PINNED_INDEX_DIGESTS = {
    "if": "beaf6857df0ec9423bc67db2855a87e04e96ad1c9639fad1316247a30e06b397",
    "sif": "2a23232e4dc9343ae335954752e89c7ae791c0a751db30c81dd85896d7a79c62",
    "sif-p": "a742e7cc51f9fc80b8a59e874809d7952958ba08a3e457c65774707c506d8b35",
    "sif-g": "eed22bd22208fb76f93538286160d93e20aa606ef328a8234b8600e9fe046fd6",
}


class TestIndexLayoutIsPinned:
    @pytest.mark.parametrize("kind", sorted(PINNED_INDEX_DIGESTS))
    def test_every_page_tree_and_row(self, kind):
        db = build_dataset("SYN", scale=0.1)
        assert index_layout_digest(db, kind) == PINNED_INDEX_DIGESTS[kind]
