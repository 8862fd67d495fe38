"""Tests for workload generation."""

import pytest

from repro.errors import QueryError
from repro.workloads.queries import (
    WorkloadConfig,
    generate_diversified_queries,
    generate_sk_queries,
)


class TestConfig:
    def test_defaults_match_paper(self):
        cfg = WorkloadConfig()
        assert cfg.num_queries == 500
        assert cfg.num_keywords == 3
        assert cfg.resolved_delta_max() == 1500.0  # 500 * l
        assert cfg.k == 10
        assert cfg.lambda_ == 0.8

    def test_delta_max_override(self):
        assert WorkloadConfig(delta_max=250.0).resolved_delta_max() == 250.0

    def test_validation(self):
        with pytest.raises(QueryError):
            WorkloadConfig(num_queries=0)
        with pytest.raises(QueryError):
            WorkloadConfig(num_keywords=0)
        with pytest.raises(QueryError):
            WorkloadConfig(keyword_source="psychic")


class TestGeneration:
    def test_sk_queries_shape(self, tiny_db):
        cfg = WorkloadConfig(num_queries=20, num_keywords=2, seed=1)
        queries = generate_sk_queries(tiny_db, cfg)
        assert len(queries) == 20
        for q in queries:
            assert len(q.terms) == 2
            assert q.delta_max == 1000.0

    def test_determinism(self, tiny_db):
        cfg = WorkloadConfig(num_queries=10, seed=4)
        a = generate_sk_queries(tiny_db, cfg)
        b = generate_sk_queries(tiny_db, cfg)
        assert [(q.position, q.terms) for q in a] == [
            (q.position, q.terms) for q in b
        ]

    def test_seeds_differ(self, tiny_db):
        a = generate_sk_queries(tiny_db, WorkloadConfig(num_queries=10, seed=1))
        b = generate_sk_queries(tiny_db, WorkloadConfig(num_queries=10, seed=2))
        assert [q.terms for q in a] != [q.terms for q in b]

    def test_object_mode_queries_are_satisfiable(self, tiny_db):
        """Object-mode keywords come from one object, so at least one
        object in the dataset contains them all."""
        cfg = WorkloadConfig(num_queries=25, num_keywords=2, seed=9)
        for q in generate_sk_queries(tiny_db, cfg):
            assert any(o.contains_all(q.terms) for o in tiny_db.store)

    def test_frequency_mode(self, tiny_db):
        cfg = WorkloadConfig(
            num_queries=15, num_keywords=2, keyword_source="frequency", seed=3
        )
        queries = generate_sk_queries(tiny_db, cfg)
        vocab = tiny_db.store.keyword_frequencies().keys()
        for q in queries:
            assert q.terms <= vocab

    def test_positions_come_from_objects(self, tiny_db):
        cfg = WorkloadConfig(num_queries=15, seed=6)
        object_positions = {o.position for o in tiny_db.store}
        for q in generate_sk_queries(tiny_db, cfg):
            assert q.position in object_positions

    def test_diversified_queries_carry_k_lambda(self, tiny_db):
        cfg = WorkloadConfig(num_queries=5, k=7, lambda_=0.6, seed=2)
        for q in generate_diversified_queries(tiny_db, cfg):
            assert q.k == 7
            assert q.lambda_ == 0.6
