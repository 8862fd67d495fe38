"""Incremental diversified top-k: byte-identity with re-query.

The contract under test is the ISSUE's acceptance property: after *any*
interleaving of object inserts, object deletes and edge reweights, the
incremental maintainer's answer is identical — same object ids in the
same order, same objective value — to running the diversified query
from scratch against the updated database.
"""

import dataclasses
import random

import numpy as np
import pytest

from repro.core.incremental import IncrementalDiversifiedTopK
from repro.datasets.catalog import DatasetProfile, build_dataset
from repro.errors import DatasetError, GraphError
from repro.workloads.queries import WorkloadConfig, generate_diversified_queries

SMALL_PROFILE = DatasetProfile(
    name="TINY-DYN",
    network_kind="planar",
    num_nodes=120,
    neighbours=3,
    num_objects=400,
    vocabulary_size=80,
    avg_keywords=6,
    zipf_z=1.0,
    num_topics=8,
    seed=5,
)


def fresh_db():
    return build_dataset(SMALL_PROFILE)


def apply_random_update(db, index, rng):
    """Apply one random committed update; returns its kind."""
    kind = rng.choice(["insert", "insert", "delete", "edge_weight"])
    if kind == "insert":
        donor, keyword_donor = rng.sample(list(db.store), 2)
        db.insert_object(
            donor.position, set(keyword_donor.keywords), indexes=(index,)
        )
    elif kind == "delete":
        victim = rng.choice(list(db.store))
        db.delete_object(victim.object_id, indexes=(index,))
    else:
        edge = rng.choice(list(db.network.edges()))
        factor = float(np.exp(rng.uniform(np.log(0.5), np.log(2.0))))
        db.update_edge_weight(edge.edge_id, factor * edge.weight)
    return kind


def assert_identical(incremental, scratch, label):
    assert incremental.object_ids() == scratch.object_ids(), label
    assert incremental.objective_value == pytest.approx(
        scratch.objective_value, abs=1e-12
    ), label


@pytest.mark.parametrize("seed", [11, 42, 101])
def test_incremental_equals_requery_after_interleaved_updates(seed):
    db = fresh_db()
    index = db.build_index("sif", file_prefix=f"incr-{seed}")
    rng = random.Random(seed)
    queries = generate_diversified_queries(
        db, WorkloadConfig(num_queries=5, num_keywords=2, k=4, seed=seed)
    )
    maintainers = [
        IncrementalDiversifiedTopK(db, index, q) for q in queries
    ]
    # Round 0: no updates yet — bootstrap must already agree.
    for q, m in zip(queries, maintainers):
        assert_identical(
            m.current(),
            db.diversified_search(index, q, method="seq"),
            (seed, "bootstrap", q),
        )
    for round_no in range(4):
        for _ in range(4):
            apply_random_update(db, index, rng)
        for q, m in zip(queries, maintainers):
            assert_identical(
                m.current(),
                db.diversified_search(index, q, method="seq"),
                (seed, round_no, q),
            )
    # Both maintenance paths must have been exercised across seeds and
    # rounds for the property to mean anything; with 16 updates at a
    # 25% reweight rate a full recompute is near-certain, and inserts
    # and deletes guarantee incremental folds.
    counters = [m.counters() for m in maintainers]
    assert sum(c["refreshes"] for c in counters) > 0
    assert sum(c["incremental_refreshes"] for c in counters) > 0


def test_insert_then_delete_in_one_batch_is_a_noop(seed=7):
    db = fresh_db()
    index = db.build_index("sif", file_prefix="incr-insdel")
    rng = random.Random(seed)
    queries = generate_diversified_queries(
        db, WorkloadConfig(num_queries=3, num_keywords=2, k=4, seed=seed)
    )
    maintainers = [
        IncrementalDiversifiedTopK(db, index, q) for q in queries
    ]
    before = [m.current() for m in maintainers]
    donor, keyword_donor = rng.sample(list(db.store), 2)
    obj = db.insert_object(
        donor.position, set(keyword_donor.keywords), indexes=(index,)
    )
    db.delete_object(obj.object_id, indexes=(index,))
    for m, prev, q in zip(maintainers, before, queries):
        after = m.current()
        assert_identical(after, prev, q)
        assert_identical(
            after, db.diversified_search(index, q, method="seq"), q
        )


def test_irrelevant_reweight_keeps_pool_incremental():
    """A reweighted edge far outside every query radius must not force
    a full recompute."""
    db = fresh_db()
    index = db.build_index("sif", file_prefix="incr-far")
    queries = generate_diversified_queries(
        db, WorkloadConfig(num_queries=4, num_keywords=2, k=4, seed=3)
    )
    maintainers = [
        IncrementalDiversifiedTopK(db, index, q) for q in queries
    ]
    for m in maintainers:
        m.current()
    # Pick the edge whose midpoint is farthest from every query point
    # and nudge it by 1% — geometrically irrelevant to all of them.
    from repro.spatial.geometry import Point

    q_points = [db.network.position_point(q.position) for q in queries]
    far_edge = max(
        db.network.edges(),
        key=lambda e: min(
            Point(
                (e.p1.x + e.p2.x) / 2.0, (e.p1.y + e.p2.y) / 2.0
            ).distance_to(p)
            for p in q_points
        ),
    )
    db.update_edge_weight(far_edge.edge_id, far_edge.weight * 1.01)
    for q, m in zip(queries, maintainers):
        result = m.current()
        assert_identical(
            result, db.diversified_search(index, q, method="seq"), q
        )
    counters = [m.counters() for m in maintainers]
    # At least one maintainer must have classified the far edge as
    # irrelevant (the conservative geometric test can keep a few).
    assert any(c["full_recomputes"] == 0 for c in counters)


def test_counters_and_pool_exposed():
    db = fresh_db()
    index = db.build_index("sif", file_prefix="incr-meta")
    (query,) = generate_diversified_queries(
        db, WorkloadConfig(num_queries=1, num_keywords=2, k=4, seed=9)
    )
    m = IncrementalDiversifiedTopK(db, index, query)
    result = m.current()
    assert m.epoch == db.data_version
    assert m.pool_size >= len(result.items)
    assert result.stats.epoch == m.epoch
    c = m.counters()
    assert c["refreshes"] == 0  # bootstrap is not a refresh
    donor = next(iter(db.store))
    db.insert_object(donor.position, {"nope-kw"}, indexes=(index,))
    m.current()
    assert m.counters()["refreshes"] == 1
    assert m.epoch == db.data_version


# ----------------------------------------------------------------------
# The two errors refresh() expects, and nothing wider
# ----------------------------------------------------------------------
def standing_query(prefix):
    db = fresh_db()
    index = db.build_index("sif", file_prefix=prefix)
    (query,) = generate_diversified_queries(
        db, WorkloadConfig(num_queries=1, num_keywords=2, k=4, seed=9)
    )
    return db, index, query, IncrementalDiversifiedTopK(db, index, query)


def test_matching_insert_deleted_in_the_same_batch_is_skipped():
    """The insert record's object is gone by the time the batch is
    folded: ``ObjectStore.get`` raises ``DatasetError`` and the record
    is skipped, the delete record keeping it out of the pool."""
    db, index, query, m = standing_query("incr-gone")
    size = m.pool_size
    obj = db.insert_object(query.position, set(query.terms), indexes=(index,))
    db.delete_object(obj.object_id, indexes=(index,))
    with pytest.raises(DatasetError):
        db.store.get(obj.object_id)
    assert m.refresh() is False
    assert m.pool_size == size
    assert m.counters()["full_recomputes"] == 0


def test_query_edge_shrunk_beneath_its_offset_forces_a_recompute():
    """``position_point`` raises ``GraphError`` once the query's own
    edge weighs less than the query's offset: the standing query's
    geometry is stale, so the reweight counts as relevant."""
    db, index, query, m = standing_query("incr-shrunk")
    edge = db.network.edge(query.position.edge_id)
    assert query.position.offset > 0.0
    db.update_edge_weight(edge.edge_id, query.position.offset / 2.0)
    with pytest.raises(GraphError):
        db.network.position_point(query.position)
    assert m._reweight_is_relevant(edge.edge_id) is True


@pytest.mark.parametrize("target", ["store.get", "network.position_point"])
def test_an_unexpected_error_is_not_swallowed(target, monkeypatch):
    db, index, query, m = standing_query("incr-boom")
    db.insert_object(query.position, set(query.terms), indexes=(index,))
    edge = next(iter(db.network.edges()))
    db.update_edge_weight(edge.edge_id, edge.weight * 1.01)

    def boom(*_args):
        raise RuntimeError("not one of ours")

    owner, name = target.split(".")
    monkeypatch.setattr(getattr(db, owner), name, boom)
    with pytest.raises(RuntimeError, match="not one of ours"):
        m.refresh()


# ----------------------------------------------------------------------
# The standing query's loads count like a query's
# ----------------------------------------------------------------------
def test_bootstraps_reach_the_lifetime_totals_only_through_merge():
    """The bootstrap's expansion, and the re-bootstrap a relevant
    reweight forces, count into counters of their own that
    ``merge_counters`` folds in under its lock — never straight into
    ``index.lifetime_counters``."""
    db = fresh_db()
    index = db.build_index("sif", file_prefix="incr-merge")
    (query,) = generate_diversified_queries(
        db, WorkloadConfig(num_queries=1, num_keywords=2, k=4, seed=9)
    )
    merged = []
    merge = index.merge_counters

    def recording(counters):
        merged.append(dataclasses.replace(counters))
        merge(counters)

    index.merge_counters = recording

    def totals():
        return dataclasses.asdict(index.lifetime_counters)

    def merged_since(start):
        sums = dict(start)
        for counters in merged:
            for name, value in dataclasses.asdict(counters).items():
                sums[name] += value
        return sums

    start = totals()
    m = IncrementalDiversifiedTopK(db, index, query)
    assert len(merged) == 1
    assert merged[0].signature_tests_run > 0
    assert totals() == merged_since(start)
    edge = db.network.edge(query.position.edge_id)
    db.update_edge_weight(edge.edge_id, edge.weight * 1.01)
    m.refresh()
    assert m.counters()["full_recomputes"] == 1
    assert len(merged) == 2
    assert totals() == merged_since(start)
