"""Shared fixtures: hand-built micro networks and small generated datasets."""

from __future__ import annotations

from contextlib import contextmanager
from types import SimpleNamespace

import pytest
from hypothesis import settings

from repro import (
    Database,
    DiversifiedResult,
    DiversifiedSKQuery,
    NetworkPosition,
    QueryPlan,
    QueryStats,
    RoadNetwork,
    SKQuery,
    SKResult,
)
from repro.datasets import build_dataset
from repro.datasets.catalog import DatasetProfile
from repro.network.distance import PAIRWISE_CUTOFF_FACTOR, PairwiseDistanceComputer
from repro.obs.events import QueryEvent
from repro.obs.tracing import NULL_TRACER

# A property failure prints its ``@reproduce_failure`` line, so one seen
# only in CI can be replayed locally.  Each test keeps its own deadline
# and example count.
settings.register_profile("repro", print_blob=True)
settings.load_profile("repro")


def make_line_network(num_nodes: int = 5, spacing: float = 100.0) -> RoadNetwork:
    """A path graph ``n0 - n1 - ... - n_{k-1}`` with equal edge lengths."""
    network = RoadNetwork()
    for i in range(num_nodes):
        network.add_node(i, i * spacing, 0.0)
    for i in range(num_nodes - 1):
        network.add_edge(i, i + 1)
    return network


def make_grid4() -> RoadNetwork:
    """A 2x2-cell grid (9 nodes) with unit spacing 100.

    Node ids: ``r * 3 + c`` for row ``r``, column ``c``; every
    horizontal and vertical neighbour pair is connected, so shortest
    paths are Manhattan distances times 100.
    """
    network = RoadNetwork()
    for r in range(3):
        for c in range(3):
            network.add_node(r * 3 + c, c * 100.0, r * 100.0)
    for r in range(3):
        for c in range(3):
            nid = r * 3 + c
            if c < 2:
                network.add_edge(nid, nid + 1)
            if r < 2:
                network.add_edge(nid, nid + 3)
    return network


def make_paperlike_network() -> RoadNetwork:
    """A small irregular network in the spirit of the paper's Fig. 2.

    Seven nodes, eight edges, irregular edge lengths; used for precise
    hand-checked network-distance assertions.

    Layout (edge weights in brackets)::

        n0 --10-- n1 --12-- n2
        |          |         |
       [8]       [5]       [9]
        |          |         |
        n3 --7--  n4 --6--  n5
                   |
                  [4]
                   |
                   n6
    """
    network = RoadNetwork()
    coords = {
        0: (0.0, 100.0),
        1: (100.0, 100.0),
        2: (220.0, 100.0),
        3: (0.0, 0.0),
        4: (100.0, 0.0),
        5: (160.0, 0.0),
        6: (100.0, -40.0),
    }
    for nid, (x, y) in coords.items():
        network.add_node(nid, x, y)
    network.add_edge(0, 1, weight=10, length=10)
    network.add_edge(1, 2, weight=12, length=12)
    network.add_edge(0, 3, weight=8, length=8)
    network.add_edge(1, 4, weight=5, length=5)
    network.add_edge(2, 5, weight=9, length=9)
    network.add_edge(3, 4, weight=7, length=7)
    network.add_edge(4, 5, weight=6, length=6)
    network.add_edge(4, 6, weight=4, length=4)
    return network


TINY_PROFILE = DatasetProfile(
    name="TINY",
    network_kind="planar",
    num_nodes=220,
    neighbours=3,
    num_objects=900,
    vocabulary_size=80,
    avg_keywords=6,
    zipf_z=1.0,
    num_topics=8,
    seed=5,
)


@pytest.fixture(scope="session")
def tiny_db() -> Database:
    """A small but non-trivial database shared across the test session.

    Indexes built against it must not mutate it; tests that need to add
    objects build their own database.
    """
    return build_dataset(TINY_PROFILE)


@pytest.fixture(scope="session")
def tiny_indexes(tiny_db):
    """All five index kinds over the tiny database."""
    return {
        kind: tiny_db.build_index(kind, file_prefix=f"fixture-{kind}")
        for kind in ("ccam", "ir", "if", "sif", "sif-p")
    }


@pytest.fixture()
def line_network() -> RoadNetwork:
    return make_line_network()


@pytest.fixture()
def grid_network9() -> RoadNetwork:
    return make_grid4()


@pytest.fixture()
def paper_network() -> RoadNetwork:
    return make_paperlike_network()


@contextmanager
def hub_label_distances(db: Database):
    """Answer every pairwise distance of ``db``'s queries from its
    hub-label oracle while the block runs.

    No query selects the labels; this hands them to each computer the
    engine and the standing query build, so a test can check the
    Dijkstra backends against an oracle built on other machinery.  The
    oracle is looked up per computer, so a reweight's lazy rebuild is
    what the next query sees.
    """

    def computer(delta_max: float, tracer=NULL_TRACER) -> PairwiseDistanceComputer:
        return PairwiseDistanceComputer(
            db.network, db.network,
            cutoff=PAIRWISE_CUTOFF_FACTOR * delta_max, tracer=tracer,
            backend=db.hub_oracle(),
        )

    db.pairwise_computer = computer
    try:
        yield db
    finally:
        del db.pairwise_computer


def make_query_event(label: str = "SIF/COM", stats=None, **fields) -> QueryEvent:
    """The event the engine would publish for a query planned as
    ``label`` (``"<index>/<ALGORITHM>"``) that finished with ``stats``
    and no results — a real plan and result, no database.  ``fields``
    go to :class:`QueryEvent` (``error``, ``sequence``, ``trace``);
    an ``error`` makes it a failed query."""
    index_name, algorithm = label.split("/")
    algorithm = algorithm.lower()
    position = NetworkPosition(0, 0.0)
    stats = stats if stats is not None else QueryStats()
    if algorithm in ("seq", "com"):
        kind = "diversified"
        query = DiversifiedSKQuery.create(position, ["t"], 100.0, k=2)
        result = DiversifiedResult([], 0.0, algorithm.upper(), stats)
    else:
        kind = "sk"
        query = SKQuery.create(position, ["t"], 100.0)
        result = SKResult([], stats)
    plan = QueryPlan(kind, query, SimpleNamespace(name=index_name), algorithm)
    if fields.get("error") is not None:
        result = None
    return QueryEvent(plan, result, **fields)


def pos(edge_id: int, offset: float) -> NetworkPosition:
    return NetworkPosition(edge_id, offset)


def recount_catalogue(objects):
    """Catalogue statistics from a pass over ``objects``: keyword
    document frequencies, vocabulary and mean keywords per object.

    The reference the object store's running counters (and the
    planner's cost hints) must agree with.
    """
    objects = list(objects)
    freq = {}
    for obj in objects:
        for term in obj.keywords:
            freq[term] = freq.get(term, 0) + 1
    vocab = set()
    for obj in objects:
        vocab.update(obj.keywords)
    average = (
        sum(len(o.keywords) for o in objects) / len(objects)
        if objects else 0.0
    )
    return freq, frozenset(vocab), average


def assert_catalogue_matches_recount(store) -> None:
    freq, vocab, average = recount_catalogue(store)
    assert store.keyword_frequencies() == freq
    assert set(store.keyword_frequencies()) == vocab
    assert store.vocabulary_size == len(vocab)
    assert store.average_keywords_per_object() == average
    for term in vocab | {"never-seen"}:
        assert store.document_frequency(term) == freq.get(term, 0)
