"""Acceptance: concurrent execution returns serial results exactly.

A 4-worker ``execute_many`` over a seeded workload must return, per
query, the same object ids, the same network distances and the same
diversification objective f(S) as the serial run — and the
interleaving-invariant metrics totals must match.  Buffer-dependent
numbers (physical vs buffered reads) legitimately vary with
interleaving; their *sum* (logical reads) must not.
"""

import pytest

from repro.datasets import build_dataset
from repro.engine import plan_diversified, plan_sk
from repro.errors import QueryError
from repro.obs.export import database_gauges
from repro.obs.metrics import MetricsRegistry
from repro.workloads.queries import (
    WorkloadConfig,
    generate_diversified_queries,
    generate_sk_queries,
)
from repro.workloads.runner import run_sk_workload
from tests.conftest import TINY_PROFILE

#: Metrics that must be identical under any interleaving (per-query
#: work is independent when every query owns its pairwise computer).
INVARIANT_COUNTERS = (
    "query.count",
    "pairwise.dijkstra_runs",
    "distance_cache.hits",
    "distance_cache.misses",
    "io.logical_reads",
)


class _ListSink:
    def __init__(self):
        self.records = []

    def emit(self, record):
        self.records.append(record)


@pytest.fixture(scope="module")
def sif(tiny_db):
    return tiny_db.build_index("sif", file_prefix="conc-sif")


@pytest.fixture(scope="module")
def div_queries(tiny_db):
    return generate_diversified_queries(
        tiny_db, WorkloadConfig(num_queries=12, num_keywords=2, k=5, seed=91)
    )


def _div_fingerprint(results):
    return [
        (
            [(it.object.object_id, it.distance) for it in r.items],
            r.objective_value,
        )
        for r in results
    ]


def _run_batch(db, plans, workers):
    """Run the batch under a fresh metrics registry; return everything."""
    saved_metrics = db.metrics
    sink = _ListSink()
    try:
        db.metrics = MetricsRegistry()
        db.metrics.add_sink(sink)
        results = db.engine.execute_many(plans, workers=workers)
        return results, db.metrics.counters(), sink.records
    finally:
        db.metrics = saved_metrics


class TestConcurrentDeterminism:
    def test_diversified_batch_matches_serial(self, tiny_db, sif, div_queries):
        plans = [
            plan_diversified(tiny_db, sif, q, method="com")
            for q in div_queries
        ]
        loads0 = sif.lifetime_counters.objects_loaded
        serial, serial_counters, _ = _run_batch(tiny_db, plans, workers=1)
        serial_loads = sif.lifetime_counters.objects_loaded - loads0
        loads1 = sif.lifetime_counters.objects_loaded
        concurrent, conc_counters, records = _run_batch(
            tiny_db, plans, workers=4
        )
        concurrent_loads = sif.lifetime_counters.objects_loaded - loads1

        # Same answers: ids, distances, f(S), in plan order.
        assert _div_fingerprint(concurrent) == _div_fingerprint(serial)
        assert any(len(r.items) > 0 for r in serial)

        # Interleaving-invariant metrics totals match exactly.
        for name in INVARIANT_COUNTERS:
            assert conc_counters.get(name, 0) == serial_counters.get(name, 0), name
        assert conc_counters["query.count"] == len(div_queries)
        # The buffer split may move, but reads are never lost.
        for counters in (serial_counters, conc_counters):
            assert counters["io.logical_reads"] == (
                counters["io.physical_reads"] + counters["io.buffer_hits"]
            )
        # Index lifetime counters absorb the same work either way.
        assert concurrent_loads == serial_loads

        # Satellite: every emitted record carries the plan label.
        query_records = [r for r in records if r["type"] == "query"]
        assert len(query_records) == len(div_queries)
        assert {r["label"] for r in query_records} == {f"{sif.name}/COM"}
        assert {(r["kind"], r["algorithm"]) for r in query_records} == {
            ("diversified", "com")
        }

    def test_mixed_kind_batch(self, tiny_db, sif, div_queries):
        sk_queries = generate_sk_queries(
            tiny_db, WorkloadConfig(num_queries=6, num_keywords=2, seed=92)
        )
        plans = [plan_sk(tiny_db, sif, q) for q in sk_queries] + [
            plan_diversified(tiny_db, sif, q, method="com")
            for q in div_queries[:6]
        ]
        serial, serial_counters, _ = _run_batch(tiny_db, plans, workers=1)
        concurrent, conc_counters, records = _run_batch(
            tiny_db, plans, workers=3
        )
        sk_fp = lambda rs: [  # noqa: E731 — local helper
            [(it.object.object_id, it.distance) for it in r.items] for r in rs
        ]
        assert sk_fp(concurrent[:6]) == sk_fp(serial[:6])
        assert _div_fingerprint(concurrent[6:]) == _div_fingerprint(serial[6:])
        for name in INVARIANT_COUNTERS:
            assert conc_counters.get(name, 0) == serial_counters.get(name, 0), name
        labels = {r["label"] for r in records if r["type"] == "query"}
        assert labels == {f"{sif.name}/INE", f"{sif.name}/COM"}


class TestPerQueryIOUnderWorkers:
    def test_per_query_io_sums_to_the_disk_totals(self):
        # A private database whose 8-page buffer makes every query evict.
        db = build_dataset(TINY_PROFILE, buffer_pages=8)
        index = db.build_index("sif", file_prefix="conc-io-sif")
        sk_queries = generate_sk_queries(
            db, WorkloadConfig(num_queries=8, num_keywords=2, seed=95)
        )
        div_queries = generate_diversified_queries(
            db, WorkloadConfig(num_queries=8, num_keywords=2, k=4, seed=96)
        )
        plans = [plan_sk(db, index, q) for q in sk_queries] + [
            plan_diversified(db, index, q) for q in div_queries
        ]
        before = db.disk.stats.snapshot()
        results = db.engine.execute_many(plans, workers=4)
        growth = db.disk.stats.snapshot() - before

        stats = [r.stats for r in results]
        assert sum(s.buffer_evictions for s in stats) == growth.evictions > 0
        assert sum(s.io.physical_reads for s in stats) == growth.physical_reads
        assert sum(s.io.buffer_hits for s in stats) == growth.buffer_hits
        gauges = database_gauges(db)
        assert gauges["buffer_pool.hits"] + gauges["buffer_pool.misses"] == (
            db.disk.stats.logical_reads
        )

    def test_each_query_settles_as_one_unit(self):
        """Each query's log settles whole: its logical reads are its
        serial run's, and the scopes sum to the disk totals' growth."""
        db = build_dataset(TINY_PROFILE, buffer_pages=8)
        index = db.build_index("sif", file_prefix="conc-settle-sif")
        sk_queries = generate_sk_queries(
            db, WorkloadConfig(num_queries=8, num_keywords=2, seed=97)
        )
        div_queries = generate_diversified_queries(
            db, WorkloadConfig(num_queries=8, num_keywords=2, k=4, seed=98)
        )
        plans = [
            plan
            for sk, div in zip(sk_queries, div_queries)
            for plan in (
                plan_sk(db, index, sk), plan_diversified(db, index, div)
            )
        ]
        serial = db.engine.execute_many(plans)
        before = db.disk.stats.snapshot()
        concurrent = db.engine.execute_many(plans, workers=4)
        growth = db.disk.stats.snapshot() - before

        assert [r.stats.io.logical_reads for r in concurrent] == [
            r.stats.io.logical_reads for r in serial
        ]
        stats = [r.stats for r in concurrent]
        assert sum(s.io.logical_reads for s in stats) == growth.logical_reads
        assert sum(s.io.physical_reads for s in stats) == growth.physical_reads
        assert sum(s.io.buffer_hits for s in stats) == growth.buffer_hits
        assert sum(s.buffer_evictions for s in stats) == growth.evictions > 0


class TestRunnerWorkers:
    def test_workload_report_matches_serial(self, tiny_db, sif):
        queries = generate_sk_queries(
            tiny_db, WorkloadConfig(num_queries=8, num_keywords=2, seed=93)
        )
        serial = run_sk_workload(tiny_db, sif, queries, label="serial")
        pooled = run_sk_workload(
            tiny_db, sif, queries, label="pooled", workers=4
        )
        assert pooled.total_results == serial.total_results
        assert pooled.total_candidates == serial.total_candidates
        assert pooled.total_objects_loaded == serial.total_objects_loaded
        assert pooled.workers == 4 and serial.workers == 1
        assert pooled.qps > 0 and serial.qps > 0
        row = pooled.row()
        assert row["workers"] == 4 and row["qps"] == round(pooled.qps, 1)

    def test_workers_validation(self, tiny_db, sif):
        queries = generate_sk_queries(
            tiny_db, WorkloadConfig(num_queries=2, num_keywords=2, seed=94)
        )
        with pytest.raises(QueryError):
            run_sk_workload(tiny_db, sif, queries, workers=0)
        with pytest.raises(QueryError):
            tiny_db.engine.execute_many([], workers=0)
