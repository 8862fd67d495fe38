"""Property tests on randomly generated networks and datasets.

Each case builds a fresh small world — random planar network, random
objects, random query — and checks the full pipeline against brute
force.  These are the heaviest guards against structural bugs that a
fixed fixture might never exercise (degenerate edges, dead-end nodes,
objects at offsets 0/weight, queries on empty edges...).  The brute
force is :class:`tests.oracle.Oracle`, which shares no code with the
engine.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.database import Database
from repro.core.ine import INEExpansion
from repro.core.queries import SKQuery
from repro.datasets.generator import populate_objects
from repro.datasets.synthetic import random_planar_network
from tests.oracle import Oracle


def build_world(seed):
    rng = np.random.default_rng(seed)
    network = random_planar_network(int(rng.integers(20, 60)), seed=seed)
    db = Database(network, buffer_pages=64)
    populate_objects(
        db.store,
        num_objects=int(rng.integers(30, 150)),
        vocabulary_size=12,
        avg_keywords=3,
        zipf_z=0.7,
        seed=seed + 1,
        num_topics=1,
    )
    db.freeze()
    return db, rng


def random_query(db, rng, num_terms):
    objects = list(db.store)
    obj = objects[int(rng.integers(0, len(objects)))]
    keys = sorted(obj.keywords)
    take = min(num_terms, len(keys))
    idx = rng.choice(len(keys), size=take, replace=False)
    terms = frozenset(keys[int(i)] for i in idx)
    delta_max = float(rng.uniform(500, 6000))
    return obj.position, terms, delta_max


def brute_force(db, position, terms, delta_max):
    return Oracle(db).sk_range(position, terms, delta_max)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3))
def test_sk_search_matches_brute_force_on_random_worlds(seed, num_terms):
    db, rng = build_world(seed % 7)  # few worlds, many queries
    index = db.build_index("sif", file_prefix=f"prop-{seed}")
    position, terms, delta_max = random_query(db, rng, num_terms)
    expansion = INEExpansion(
        db.ccam, db.network, index, position, terms, delta_max
    )
    got = {it.object.object_id: it.distance for it in expansion.run()}
    expected = brute_force(db, position, terms, delta_max)
    assert set(got) == set(expected)
    for oid, d in expected.items():
        assert got[oid] == pytest.approx(d, abs=1e-6)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10**6))
def test_knn_is_prefix_of_range_stream(seed):
    db, rng = build_world(seed % 5)
    index = db.build_index("sif", file_prefix=f"knnprop-{seed}")
    position, terms, _ = random_query(db, rng, 1)
    k = int(rng.integers(1, 6))
    knn = db.sk_search(
        index, SKQuery.create(position, terms, 50000.0, limit=k)
    )
    full = INEExpansion(
        db.ccam, db.network, index, position, terms, 50000.0
    ).run_to_completion()
    expected = full[: len(knn.items)]
    assert [it.distance for it in knn] == pytest.approx(
        [it.distance for it in expected]
    )


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_seq_equals_com_on_random_worlds(seed):
    db, rng = build_world(seed % 5)
    index = db.build_index("sif", file_prefix=f"divprop-{seed}")
    position, terms, delta_max = random_query(db, rng, 1)
    from repro.core.queries import DiversifiedSKQuery

    k = int(rng.integers(2, 7))
    lam = float(rng.uniform(0.1, 1.0))
    query = DiversifiedSKQuery(position, terms, delta_max, k, lam)
    seq = db.diversified_search(index, query, method="seq")
    for method in ("com", None):  # None: the un-pinned plan's switch
        other = db.diversified_search(index, query, method=method)
        assert other.objective_value == pytest.approx(
            seq.objective_value, rel=1e-6, abs=1e-9
        )
        assert len(seq) == len(other)


def assert_close(got, want, label):
    assert abs(got - want) <= 1e-9, (label, got, want)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 2))
def test_knn_seq_and_com_match_the_oracle(seed, num_terms):
    """Every answer item's distance, and ``f(S)`` recomputed from the
    oracle's pair distances, within 1e-9 of the oracle's."""
    from repro.core.queries import DiversifiedSKQuery

    db, rng = build_world(seed % 7)
    index = db.build_index("sif", file_prefix=f"oracle-{seed}")
    position, terms, delta_max = random_query(db, rng, num_terms)
    oracle = Oracle(db)
    truth = oracle.sk_range(position, terms)

    k = int(rng.integers(1, 6))
    knn = db.sk_search(index, SKQuery.create(position, terms, 1e9, limit=k))
    nearest = sorted(truth.values())[:k]
    assert len(knn) == len(nearest)
    for item, want in zip(knn, nearest):
        assert_close(item.distance, truth[item.object.object_id], "knn")
        assert_close(item.distance, want, "knn rank")

    query = DiversifiedSKQuery(
        position, terms, delta_max, int(rng.integers(2, 7)),
        float(rng.uniform(0.1, 1.0)),
    )
    for method in ("seq", "com"):
        result = db.diversified_search(index, query, method=method)
        for item in result.items:
            assert item.distance <= delta_max
            assert_close(item.distance, truth[item.object.object_id], method)
        value = oracle.objective(
            [item.object.position for item in result.items],
            [truth[item.object.object_id] for item in result.items],
            delta_max, query.lambda_,
        )
        assert_close(result.objective_value, value, (method, "f(S)"))
