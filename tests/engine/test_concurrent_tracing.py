"""Acceptance: tracing composes with concurrent execution.

A 4-worker ``execute_many`` with tracing enabled must produce one
independent, well-formed span tree per query (no cross-thread stack
tearing) and return exactly the serial answers.  The tree rides the
query's event, so the tests read it where a user would: off a
slow-query log that captures every query.
"""

import sys

import pytest

from repro.engine import ExecutionContext, plan_diversified, plan_sk
from repro.obs import NULL_TRACER, Span
from repro.workloads.queries import (
    WorkloadConfig,
    generate_diversified_queries,
    generate_sk_queries,
)
from tests.reference import spans_named, walk_spans


@pytest.fixture(scope="module")
def sif(tiny_db):
    return tiny_db.build_index("sif", file_prefix="ctrace-sif")


@pytest.fixture
def traced(tiny_db):
    """Tracing on, every query captured, threads switching every 10 µs."""
    interval = sys.getswitchinterval()
    tiny_db.enable_tracing()
    log = tiny_db.enable_slow_query_log(latency_seconds=0.0)
    sys.setswitchinterval(1e-5)
    try:
        yield log
    finally:
        sys.setswitchinterval(interval)
        tiny_db.disable_slow_query_log()
        tiny_db.trace_bounds = None


def _div_fingerprint(results):
    return [
        (
            [(it.object.object_id, it.distance) for it in r.items],
            r.objective_value,
        )
        for r in results
    ]


class TestConcurrentTracing:
    def test_one_well_formed_tree_per_query(self, tiny_db, sif, traced):
        queries = generate_diversified_queries(
            tiny_db, WorkloadConfig(num_queries=10, num_keywords=2, k=5,
                                    seed=71)
        )
        plans = [
            plan_diversified(tiny_db, sif, q, method="com") for q in queries
        ]
        serial = tiny_db.engine.execute_many(plans, workers=1)
        serial_records = {r["sequence"]: r for r in traced.records()}
        assert sorted(serial_records) == list(range(len(plans)))

        concurrent = tiny_db.engine.execute_many(plans, workers=4)
        assert _div_fingerprint(concurrent) == _div_fingerprint(serial)

        records = {r["sequence"]: r for r in traced.records()[len(plans):]}
        assert sorted(records) == list(range(len(plans)))
        for sequence, record in records.items():
            root = Span.from_dict(record["trace"])
            # The record's tree is that query's own, not a neighbour's.
            assert root.name == "query.diversified"
            assert root.attrs["terms"] == record["query"]["terms"]
            assert root.attrs["candidates"] == record["stats"]["candidates"]
            assert root.attrs["method"] == "COM"
            assert root.duration > 0
            for span in walk_spans(root):
                assert span.start >= 0
                assert span.duration >= 0
            # Untorn: the same spans the serial run recorded.
            serial_root = Span.from_dict(serial_records[sequence]["trace"])
            assert [s.name for s in walk_spans(root)] == [
                s.name for s in walk_spans(serial_root)
            ]
            assert record["worker"].startswith("repro-query")

        # Attributed to the pool's threads: at most 4 of them.
        assert 1 <= len({r["worker"] for r in records.values()}) <= 4

    def test_sk_batch_traced_concurrently(self, tiny_db, sif, traced):
        queries = generate_sk_queries(
            tiny_db, WorkloadConfig(num_queries=8, num_keywords=2, seed=72)
        )
        plans = [plan_sk(tiny_db, sif, q) for q in queries]
        results = tiny_db.engine.execute_many(plans, workers=4)
        assert len(results) == len(plans)
        roots = [Span.from_dict(r["trace"]) for r in traced.records()]
        assert len(roots) == len(plans)
        assert {root.name for root in roots} == {"query.sk"}
        # The per-query signature summary landed inside each tree.
        for root in roots:
            assert spans_named(root, "signature.filter")

    def test_tracing_off_stays_null(self, tiny_db, sif):
        assert tiny_db.trace_bounds is None
        queries = generate_sk_queries(
            tiny_db, WorkloadConfig(num_queries=2, num_keywords=2, seed=73)
        )
        plans = [plan_sk(tiny_db, sif, q) for q in queries]
        assert ExecutionContext(tiny_db, plans[0]).tracer is NULL_TRACER
        log = tiny_db.enable_slow_query_log(latency_seconds=0.0)
        try:
            results = tiny_db.engine.execute_many(plans, workers=2)
            assert len(results) == 2
            assert [r["trace"] for r in log.records()] == [None, None]
        finally:
            tiny_db.disable_slow_query_log()
