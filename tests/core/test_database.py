"""Tests for the Database facade."""

import pytest

from repro import Database, DiversifiedSKQuery, SKQuery
from repro.datasets.catalog import build_dataset
from repro.errors import QueryError, ReproError
from repro.network.graph import NetworkPosition
from repro.workloads.queries import (
    WorkloadConfig,
    generate_diversified_queries,
    generate_sk_queries,
)
from tests.reference import sk_part


@pytest.fixture()
def db(grid_network9):
    db = Database(grid_network9, buffer_pages=32)
    db.add_object(NetworkPosition(0, 30.0), {"pizza", "bar"})
    db.add_object(NetworkPosition(0, 60.0), {"pizza"})
    db.add_object(NetworkPosition(5, 20.0), {"pizza", "bar"})
    db.add_object(NetworkPosition(7, 50.0), {"bar"})
    db.freeze()
    return db


class TestLifecycle:
    def test_query_before_freeze_rejected(self, grid_network9):
        fresh = Database(grid_network9, buffer_pages=8)
        with pytest.raises(ReproError):
            fresh.build_index("sif")

    def test_add_after_freeze_rejected(self, db):
        with pytest.raises(ReproError):
            db.add_object(NetworkPosition(0, 10.0), {"x"})

    def test_buffer_policy_applied(self, grid_network9):
        fresh = Database(grid_network9)
        fresh.freeze()
        assert fresh.disk.buffer.capacity == 8

    def test_explicit_buffer_respected(self, grid_network9):
        fresh = Database(grid_network9, buffer_pages=123)
        fresh.freeze()
        assert fresh.disk.buffer.capacity == 123


def disk_pages(db):
    return sum(f.num_pages for f in db.disk.files())


class TestBufferRule:
    """``max(8, ⌊2 % × pages on disk⌋)``, applied at ``freeze()`` and
    after every ``build_index()``; ``buffer_pages`` pins it."""

    def test_each_build_grows_the_buffer(self):
        db = build_dataset("SYN", scale=0.1)
        # Frozen with no index: the network alone sits at the floor.
        assert int(0.02 * disk_pages(db)) < 8
        assert db.disk.buffer.capacity == 8
        sif = db.build_index("sif")
        first = db.disk.buffer.capacity
        assert first == int(0.02 * disk_pages(db)) > 8
        db.build_index("if")
        assert db.disk.buffer.capacity == int(0.02 * disk_pages(db)) > first
        # Sized for one index, the rule ignores the other one.
        assert db.buffer_capacity(sif) == first

    def test_explicit_buffer_pins_through_freeze_and_builds(self):
        db = build_dataset("SYN", scale=0.1, buffer_pages=5)
        assert db.disk.buffer.capacity == 5
        sif = db.build_index("sif")
        db.build_index("if")
        assert db.disk.buffer.capacity == 5
        assert db.buffer_capacity(sif) == db.buffer_capacity() == 5

    def test_answers_identical_at_the_floor_and_under_the_rule(
        self, tiny_db, tiny_indexes
    ):
        """Only page reads move with the buffer size."""
        rule = tiny_db.buffer_capacity()
        assert rule > 8
        index = tiny_indexes["sif"]
        config = WorkloadConfig(num_queries=12, num_keywords=2, k=4, seed=27)
        sk = generate_sk_queries(tiny_db, config)
        div = generate_diversified_queries(tiny_db, config)

        def run(capacity):
            tiny_db.disk.resize_buffer(capacity)
            tiny_db.disk.clear_buffer()
            answers, reads = [], 0
            for q in sk:
                result = tiny_db.sk_search(index, q)
                answers.append(result.object_ids())
                reads += result.stats.io.physical_reads
            for method in ("seq", "com"):
                for q in div:
                    result = tiny_db.diversified_search(
                        index, q, method=method
                    )
                    answers.append(
                        (result.object_ids(), result.objective_value)
                    )
                    reads += result.stats.io.physical_reads
            return answers, reads

        try:
            at_floor, floor_reads = run(8)
            under_rule, rule_reads = run(rule)
        finally:
            tiny_db.disk.resize_buffer(rule)
        assert under_rule == at_floor
        assert rule_reads < floor_reads


class TestQueries:
    def test_sk_search_end_to_end(self, db):
        index = db.build_index("sif")
        q = SKQuery.create(NetworkPosition(0, 0.0), ["pizza"], 400.0)
        result = db.sk_search(index, q)
        ids = set(result.object_ids())
        assert {0, 1} <= ids
        assert result.stats.io is not None
        assert result.stats.wall_seconds >= 0.0

    def test_sk_search_and_semantics(self, db):
        index = db.build_index("sif", file_prefix="sif-b")
        q = SKQuery.create(NetworkPosition(0, 0.0), ["pizza", "bar"], 1000.0)
        result = db.sk_search(index, q)
        for item in result:
            assert item.object.contains_all({"pizza", "bar"})

    def test_diversified_search_end_to_end(self, db):
        index = db.build_index("sif", file_prefix="sif-c")
        q = DiversifiedSKQuery.create(
            NetworkPosition(0, 0.0), ["pizza"], 1000.0, k=2, lambda_=0.5
        )
        seq = db.diversified_search(index, q, method="seq")
        com = db.diversified_search(index, q, method="com")
        assert seq.objective_value == pytest.approx(com.objective_value)
        assert len(seq) == 2

    def test_dataset_statistics(self, db):
        stats = db.dataset_statistics()
        assert stats["num_objects"] == 4
        assert stats["num_nodes"] == 9
        assert stats["vocabulary_size"] == 2


class TestQueryValidation:
    def test_empty_terms(self):
        with pytest.raises(QueryError):
            SKQuery.create(NetworkPosition(0, 0.0), [], 100.0)

    def test_bad_delta_max(self):
        with pytest.raises(QueryError):
            SKQuery.create(NetworkPosition(0, 0.0), ["a"], 0.0)

    @pytest.mark.parametrize("delta_max", [-1.0, float("nan")])
    def test_sk_delta_max_must_be_a_positive_number(self, delta_max):
        with pytest.raises(QueryError):
            SKQuery.create(NetworkPosition(0, 0.0), ["a"], delta_max)

    @pytest.mark.parametrize("delta_max", [0.0, -1.0, float("nan")])
    def test_diversified_delta_max_must_be_a_positive_number(self, delta_max):
        with pytest.raises(QueryError):
            DiversifiedSKQuery.create(
                NetworkPosition(0, 0.0), ["a"], delta_max, k=4
            )

    def test_bad_k(self):
        with pytest.raises(QueryError):
            DiversifiedSKQuery.create(NetworkPosition(0, 0.0), ["a"], 100.0, k=1)

    def test_bad_lambda(self):
        with pytest.raises(QueryError):
            DiversifiedSKQuery.create(
                NetworkPosition(0, 0.0), ["a"], 100.0, k=4, lambda_=1.5
            )

    def test_sk_query_view(self):
        q = DiversifiedSKQuery.create(NetworkPosition(0, 0.0), ["a"], 100.0, k=4)
        sk = sk_part(q)
        assert sk.terms == q.terms
        assert sk.delta_max == q.delta_max
