"""Tests for workload execution and reporting."""

import pytest

from repro.core.queries import QueryStats
from repro.obs.metrics import percentile_of_sorted
from repro.storage.iostats import IOSnapshot
from repro.workloads.queries import WorkloadConfig, generate_diversified_queries, generate_sk_queries
from repro.workloads.runner import WorkloadReport, run_diversified_workload, run_sk_workload


class TestReport:
    def test_empty_report(self):
        r = WorkloadReport(label="x")
        assert r.avg_wall_seconds == 0.0
        assert r.avg_io == 0.0
        assert r.avg_candidates == 0.0

    def test_averages(self):
        r = WorkloadReport(label="x")
        r.num_queries = 2
        r.total_wall_seconds = 0.2
        r.total_physical_reads = 100
        r.total_candidates = 10
        assert r.avg_io == 50.0
        assert r.avg_candidates == 5.0
        assert r.avg_wall_seconds == pytest.approx(0.2 / 2)

    def test_time_and_pages_are_reported_apart(self):
        """Page reads never leak into a time column, nor into a stage."""
        r = WorkloadReport(label="x")
        walls = [0.002, 0.004, 0.012]
        for wall, reads in zip(walls, (500, 100, 900)):
            io = IOSnapshot(
                logical_reads=2 * reads, physical_reads=reads, writes=0,
                buffer_hits=reads, physical_by_category={},
            )
            r.record(
                QueryStats(
                    wall_seconds=wall, io=io,
                    stage_seconds={"expansion": wall / 2, "signature": wall / 4},
                ),
                num_results=1,
            )
        row = r.row()
        assert row["avg_time_ms"] == pytest.approx(6.0)
        for p in (50, 95, 99):
            expected = percentile_of_sorted(sorted(walls), p)
            assert r.percentile(p) == expected
            assert row[f"p{p}_ms"] == round(expected * 1e3, 3)
        assert row["avg_io"] == 500.0
        stage_columns = {
            k for k in row
            if k.endswith("_ms")
            and k not in ("avg_time_ms", "p50_ms", "p95_ms", "p99_ms")
        }
        assert stage_columns == {"expansion_ms", "signature_ms"}

    def test_row_keys(self):
        row = WorkloadReport(label="SIF").row()
        assert {
            "label", "queries", "avg_time_ms", "avg_io",
            "avg_candidates", "avg_false_hit_objects",
            "p50_ms", "p95_ms", "p99_ms",
        } <= set(row)

    def test_percentiles(self):
        r = WorkloadReport(label="x")
        r.latencies = [0.010 * (i + 1) for i in range(100)]  # 10ms..1000ms
        assert r.percentile(50) == pytest.approx(0.505, rel=1e-6)
        assert r.percentile(95) == pytest.approx(0.9505, rel=1e-6)
        assert r.percentile(99) == pytest.approx(0.9901, rel=1e-6)
        assert r.percentile(100) == pytest.approx(1.0)

    def test_stage_breakdown_in_row(self, tiny_db, tiny_indexes):
        queries = generate_diversified_queries(
            tiny_db, WorkloadConfig(num_queries=3, num_keywords=2, k=4, seed=15)
        )
        report = run_diversified_workload(
            tiny_db, tiny_indexes["sif"], queries, method="com"
        )
        row = report.row()
        assert "expansion_ms" in row
        assert "maintenance_ms" in row
        assert "signature_ms" in row
        # Stage times are sub-intervals of query wall time: their
        # largest member can never exceed the total.
        assert max(report.stage_totals.values()) <= report.total_wall_seconds * 1.05


class TestRunners:
    def test_sk_workload(self, tiny_db, tiny_indexes):
        queries = generate_sk_queries(
            tiny_db, WorkloadConfig(num_queries=8, num_keywords=2, seed=44)
        )
        report = run_sk_workload(tiny_db, tiny_indexes["sif"], queries)
        assert report.num_queries == 8
        assert report.total_physical_reads >= 0
        assert report.label == "SIF"

    def test_diversified_workload(self, tiny_db, tiny_indexes):
        queries = generate_diversified_queries(
            tiny_db, WorkloadConfig(num_queries=4, num_keywords=2, k=4, seed=15)
        )
        seq = run_diversified_workload(
            tiny_db, tiny_indexes["sif"], queries, method="seq"
        )
        com = run_diversified_workload(
            tiny_db, tiny_indexes["sif"], queries, method="com"
        )
        assert seq.num_queries == com.num_queries == 4
        assert com.total_candidates <= seq.total_candidates

    def test_custom_label(self, tiny_db, tiny_indexes):
        queries = generate_sk_queries(
            tiny_db, WorkloadConfig(num_queries=2, seed=5)
        )
        report = run_sk_workload(
            tiny_db, tiny_indexes["sif"], queries, label="custom"
        )
        assert report.label == "custom"
