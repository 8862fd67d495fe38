"""Tests for the benchmark harness caches."""

import pytest

from repro.bench.harness import BenchContext, bench_scale
from repro.workloads.queries import WorkloadConfig


class TestBenchScale:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert bench_scale() == 1.0

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.25")
        assert bench_scale() == 0.25


class TestContextCaching:
    @pytest.fixture()
    def ctx(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.05")
        return BenchContext()

    def test_database_cached(self, ctx):
        a = ctx.database("SYN")
        b = ctx.database("SYN")
        assert a is b

    def test_database_override_key(self, ctx):
        a = ctx.database("SYN")
        b = ctx.database("SYN", num_objects=100)
        assert a is not b
        assert b.dataset_statistics()["num_objects"] == 100

    def test_index_cached(self, ctx):
        a = ctx.index("SYN", "sif")
        b = ctx.index("SYN", "sif")
        assert a is b

    def test_index_kwargs_key(self, ctx):
        a = ctx.index("SYN", "sif-p", max_cuts=2, file_prefix="h2")
        b = ctx.index("SYN", "sif-p", max_cuts=3, file_prefix="h3")
        assert a is not b

    def test_sk_report_runs(self, ctx):
        report = ctx.sk_report(
            "SYN", "sif", WorkloadConfig(num_queries=3, num_keywords=2, seed=1)
        )
        assert report.num_queries == 3

    def test_diversified_report_runs(self, ctx):
        report = ctx.diversified_report(
            "SYN", "sif", "com",
            WorkloadConfig(num_queries=2, num_keywords=2, k=4, seed=2),
        )
        assert report.num_queries == 2
