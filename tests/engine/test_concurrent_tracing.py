"""Acceptance: tracing composes with concurrent execution.

A 4-worker ``execute_many`` with tracing enabled must produce one
independent, well-formed span tree per query (no cross-thread stack
tearing), return exactly the serial answers, and export a single valid
merged Chrome trace with one ``tid`` lane per worker thread.
"""

import json

import pytest

from repro.engine import plan_diversified, plan_sk
from repro.obs.export import chrome_trace, write_chrome_trace
from repro.workloads.queries import (
    WorkloadConfig,
    generate_diversified_queries,
    generate_sk_queries,
)


@pytest.fixture(scope="module")
def sif(tiny_db):
    return tiny_db.build_index("sif", file_prefix="ctrace-sif")


@pytest.fixture
def collector(tiny_db):
    collector = tiny_db.enable_tracing(max_traces=256)
    yield collector
    tiny_db.disable_tracing()


def _div_fingerprint(results):
    return [
        (
            [(it.object.object_id, it.distance) for it in r.items],
            r.objective_value,
        )
        for r in results
    ]


class TestConcurrentTracing:
    def test_one_well_formed_tree_per_query(
        self, tiny_db, sif, collector, tmp_path
    ):
        queries = generate_diversified_queries(
            tiny_db, WorkloadConfig(num_queries=10, num_keywords=2, k=5,
                                    seed=71)
        )
        plans = [
            plan_diversified(tiny_db, sif, q, method="com") for q in queries
        ]
        serial = tiny_db.engine.execute_many(plans, workers=1)
        serial_count = len(collector.records)
        assert serial_count == len(plans)
        collector.clear()

        concurrent = tiny_db.engine.execute_many(plans, workers=4)
        assert _div_fingerprint(concurrent) == _div_fingerprint(serial)

        records = collector.records
        assert len(records) == len(plans)
        for record in records:
            root = record.span
            assert root.name == "query.diversified"
            assert root.duration > 0
            assert root.attrs["method"] == "COM"
            # A well-formed tree: every child interval sits inside the
            # root's own window (shared collector origin).
            for child in root.walk():
                assert child.start >= 0
                assert child.duration >= 0
            assert record.worker.startswith("repro-query")
            assert record.lane >= 1

        # Queries were attributed to the pool's worker threads; at most
        # 4 lanes, and with 10 queries over 4 workers at least 2.
        lanes = {record.lane for record in records}
        assert 1 <= len(lanes) <= 4
        assert len(collector.workers) == len(lanes)

        # The merged Chrome trace: one thread_name metadata event per
        # worker lane, every span event on one of those lanes.
        path = write_chrome_trace(tmp_path / "merged.json", collector)
        doc = json.loads(path.read_text())
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert {e["tid"] for e in meta} == lanes
        assert all(e["args"]["name"].startswith("worker") for e in meta)
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["tid"] for e in spans} == lanes
        assert sum(
            1 for e in spans if e["name"] == "query.diversified"
        ) == len(plans)

    def test_sk_batch_traced_concurrently(self, tiny_db, sif, collector):
        queries = generate_sk_queries(
            tiny_db, WorkloadConfig(num_queries=8, num_keywords=2, seed=72)
        )
        plans = [plan_sk(tiny_db, sif, q) for q in queries]
        results = tiny_db.engine.execute_many(plans, workers=4)
        assert len(results) == len(plans)
        roots = collector.traces
        assert len(roots) == len(plans)
        assert {root.name for root in roots} == {"query.sk"}
        # The per-query signature summary landed inside each tree.
        for root in roots:
            assert root.find("signature.filter") is not None

    def test_tracing_off_stays_null(self, tiny_db, sif):
        assert tiny_db.trace_collector is None
        queries = generate_sk_queries(
            tiny_db, WorkloadConfig(num_queries=2, num_keywords=2, seed=73)
        )
        plans = [plan_sk(tiny_db, sif, q) for q in queries]
        results = tiny_db.engine.execute_many(plans, workers=2)
        assert len(results) == 2

    def test_collector_bound_drops_oldest(self, tiny_db, sif):
        collector = tiny_db.enable_tracing(max_traces=3)
        try:
            queries = generate_sk_queries(
                tiny_db, WorkloadConfig(num_queries=5, num_keywords=2,
                                        seed=74)
            )
            plans = [plan_sk(tiny_db, sif, q) for q in queries]
            tiny_db.engine.execute_many(plans, workers=2)
            assert len(collector.records) == 3
            assert collector.dropped_traces == 2
        finally:
            tiny_db.disable_tracing()

    def test_chrome_trace_still_accepts_plain_tracer(self, tiny_db, sif):
        # The historic serial path (EXPLAIN) keeps per-query tids.
        queries = generate_sk_queries(
            tiny_db, WorkloadConfig(num_queries=1, num_keywords=2, seed=75)
        )
        report = tiny_db.explain(sif, queries[0])
        doc = chrome_trace([report.trace])
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
