"""Metamorphic properties of the SK range search, on every index kind.

Two queries that differ in one known way must answer in a known
relation, whatever the index:

* **δmax monotonicity** — for δ₁ ≤ δ₂, the answer at δ₁ is the answer
  at δ₂ cut to the items at distance ≤ δ₁: the same objects, the same
  distances, the same order;
* **keyword superset** — adding keywords keeps exactly the items of
  the smaller query's answer that carry them, in the same order.

The worlds are small random networks and datasets; each query runs the
INE expansion once per index kind (the signature kinds through the
inline guard, the others through the per-edge loader).
"""

from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.database import Database
from repro.core.queries import SKQuery
from repro.datasets.generator import populate_objects
from repro.datasets.synthetic import random_planar_network
from repro.network.graph import NetworkPosition

KINDS = ("ir", "if", "sif", "sif-g", "sif-p")
VOCABULARY = [f"t{i}" for i in range(12)]


@lru_cache(maxsize=None)
def world(seed):
    """A random world and one index of every kind on it."""
    rng = np.random.default_rng(seed)
    network = random_planar_network(int(rng.integers(25, 60)), seed=seed)
    db = Database(network, buffer_pages=64)
    populate_objects(
        db.store,
        num_objects=int(rng.integers(60, 180)),
        vocabulary_size=len(VOCABULARY),
        avg_keywords=3,
        zipf_z=0.7,
        seed=seed + 1,
        num_topics=1,
    )
    db.freeze()
    indexes = {
        kind: db.build_index(kind, file_prefix=f"meta-{kind}")
        for kind in KINDS
    }
    return db, indexes


def answer(db, index, position, terms, delta_max):
    result = db.sk_search(index, SKQuery.create(position, terms, delta_max))
    return [(item.object.object_id, item.distance) for item in result]


def query_position(db, pick, offset):
    edges = sorted(edge.edge_id for edge in db.network.edges())
    edge_id = edges[pick % len(edges)]
    return NetworkPosition(edge_id, offset * db.network.edge(edge_id).weight)


def anchor_terms(db, pick, size):
    """Up to ``size`` keywords of one object, so answers are not empty."""
    objects = sorted(db.store, key=lambda o: o.object_id)
    keywords = sorted(objects[pick % len(objects)].keywords)
    return frozenset(keywords[:size])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 3),
    pick=st.integers(0, 10**6),
    offset=st.floats(0.0, 1.0),
    size=st.integers(1, 2),
    deltas=st.tuples(st.floats(1.0, 4000.0), st.floats(1.0, 4000.0)),
)
def test_delta_max_monotonicity(seed, pick, offset, size, deltas):
    db, indexes = world(seed)
    position = query_position(db, pick, offset)
    terms = anchor_terms(db, pick // 7, size)
    small, large = sorted(deltas)
    for kind, index in indexes.items():
        near = answer(db, index, position, terms, small)
        far = answer(db, index, position, terms, large)
        assert near == [(oid, d) for oid, d in far if d <= small], kind


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 3),
    pick=st.integers(0, 10**6),
    offset=st.floats(0.0, 1.0),
    extra=st.sets(st.sampled_from(VOCABULARY), min_size=1, max_size=2),
    delta_max=st.floats(500.0, 6000.0),
)
def test_keyword_superset_gives_a_result_subset(
    seed, pick, offset, extra, delta_max
):
    db, indexes = world(seed)
    position = query_position(db, pick, offset)
    terms = anchor_terms(db, pick // 7, 1)
    wider = terms | extra
    for kind, index in indexes.items():
        fewer = answer(db, index, position, terms, delta_max)
        more = answer(db, index, position, wider, delta_max)
        assert more == [
            (oid, d) for oid, d in fewer
            if db.store.get(oid).contains_all(wider)
        ], kind
