"""Open-loop load-driver tests: pacing, latency semantics, live gate."""

from __future__ import annotations

import re
import threading
import urllib.request

import pytest

from repro.datasets.catalog import build_dataset
from repro.errors import QueryError
from repro.obs.slo import SLORule, SLOSpec
from repro.workloads import WorkloadConfig, generate_diversified_queries
from repro.workloads.loadtest import (
    OBSERVED_STREAM,
    LoadTestConfig,
    LoadTestReport,
    run_loadtest,
)
from tests.conftest import TINY_PROFILE


@pytest.fixture()
def queries(tiny_db):
    return generate_diversified_queries(
        tiny_db, WorkloadConfig(num_queries=20, k=3, seed=17)
    )


def spec_with_p95(threshold: float) -> SLOSpec:
    return SLOSpec(
        name="gate",
        rules=[
            SLORule(
                name="observed-p95",
                kind="histogram_quantile",
                metric=OBSERVED_STREAM,
                op="<=",
                threshold=threshold,
                quantile=95,
            ),
        ],
    )


class TestConfig:
    def test_total_queries(self):
        assert LoadTestConfig(qps=25.0, duration_seconds=2.0).total_queries == 50
        assert LoadTestConfig(qps=0.5, duration_seconds=1.0).total_queries == 1

    def test_validation(self):
        with pytest.raises(QueryError):
            LoadTestConfig(qps=0)
        with pytest.raises(QueryError):
            LoadTestConfig(duration_seconds=0)
        with pytest.raises(QueryError):
            LoadTestConfig(workers=0)
        with pytest.raises(QueryError):
            LoadTestConfig(method="nope")

    def test_empty_queries_rejected(self, tiny_db, tiny_indexes):
        with pytest.raises(QueryError):
            run_loadtest(
                tiny_db, tiny_indexes["sif"], [], LoadTestConfig()
            )


class TestReport:
    def test_percentiles_from_intended_time(self):
        report = LoadTestReport(label="x", offered_qps=10.0, workers=1)
        report.latencies = [0.1, 0.2, 0.3, 0.4]
        report.service_latencies = [0.01, 0.02, 0.03, 0.04]
        assert report.percentile(50) == pytest.approx(0.25)
        assert report.percentile(50, service=True) == pytest.approx(0.025)

    def test_slo_gate_defaults_open(self):
        report = LoadTestReport(label="x", offered_qps=1.0, workers=1)
        assert report.slo_passed is True
        report.slo = {"passed": False}
        assert report.slo_passed is False


class TestRunLoadtest:
    def test_sustains_offered_qps(self, tiny_db, tiny_indexes, queries):
        config = LoadTestConfig(qps=40.0, duration_seconds=1.5, workers=4)
        report = run_loadtest(
            tiny_db, tiny_indexes["sif"], queries, config, label="pace"
        )
        assert report.sent == config.total_queries
        assert report.completed == report.sent
        assert report.errors == 0
        # Open loop: wall clock tracks the schedule, so achieved ~= offered.
        assert report.achieved_qps == pytest.approx(40.0, rel=0.25)
        assert report.wall_clock_seconds >= 1.0

    def test_latency_measured_from_intended_time(
        self, tiny_db, tiny_indexes, queries
    ):
        """Coordinated-omission safety: queue wait counts as latency.

        One worker + a rate the tiny database can serve only by
        queueing ⇒ observed latency must exceed pure service time.
        """
        config = LoadTestConfig(qps=150.0, duration_seconds=0.5, workers=1)
        report = run_loadtest(
            tiny_db, tiny_indexes["sif"], queries, config, label="queue"
        )
        assert report.completed == config.total_queries
        # Every latency >= its own service time; in aggregate the tail
        # observed latency carries the queueing delay on top.
        assert report.percentile(95) >= report.percentile(95, service=True)
        assert max(report.latencies) >= max(report.service_latencies)

    def test_live_slo_pass(self, tiny_db, tiny_indexes, queries):
        config = LoadTestConfig(qps=30.0, duration_seconds=1.0, workers=4)
        report = run_loadtest(
            tiny_db, tiny_indexes["sif"], queries, config,
            slo_spec=spec_with_p95(30.0), label="pass",
        )
        assert report.slo is not None
        assert report.slo_passed is True
        assert report.slo["breach_windows"] == 0
        assert report.row()["slo"] == "PASS"
        # The monitor is uninstalled after the run.
        assert tiny_db.live_slo is None

    def test_live_slo_injected_breach(self, tiny_db, tiny_indexes, queries):
        """An impossible threshold must fail the gate and count breaches."""
        config = LoadTestConfig(qps=30.0, duration_seconds=1.0, workers=4)
        report = run_loadtest(
            tiny_db, tiny_indexes["sif"], queries, config,
            slo_spec=spec_with_p95(0.0), label="breach",
        )
        assert report.slo_passed is False
        assert report.slo["breach_windows"] >= 1
        assert report.row()["slo"] == "FAIL"
        assert tiny_db.metrics.counters()["slo.breaches"] >= 1
        assert tiny_db.live_slo is None

    def test_observed_stream_feeds_rollup(self, tiny_db, tiny_indexes, queries):
        config = LoadTestConfig(qps=30.0, duration_seconds=0.5, workers=2)
        run_loadtest(tiny_db, tiny_indexes["sif"], queries, config)
        snap = tiny_db.rollup.snapshot()
        assert OBSERVED_STREAM in snap.streams
        assert snap.streams[OBSERVED_STREAM]["count"] >= 1

    def test_window_counts_each_query_once(self):
        """The engine's event counts a query in the live window; the
        driver's observed latency adds a sample, not a second count.
        A database of its own: the shared one's window holds other
        tests' queries."""
        db = build_dataset(TINY_PROFILE)
        index = db.build_index("sif")
        queries = generate_diversified_queries(
            db, WorkloadConfig(num_queries=20, k=3, seed=17)
        )
        config = LoadTestConfig(qps=40.0, duration_seconds=1.0, workers=4)
        report = run_loadtest(db, index, queries, config)
        snap = db.rollup.snapshot()
        assert report.completed == config.total_queries
        assert snap.count == report.completed
        assert snap.stream(OBSERVED_STREAM)["count"] == report.completed

    def test_sk_method(self, tiny_db, tiny_indexes):
        from repro.workloads import generate_sk_queries

        sk_queries = generate_sk_queries(
            tiny_db, WorkloadConfig(num_queries=10, seed=23)
        )
        config = LoadTestConfig(
            qps=30.0, duration_seconds=0.5, workers=2, method="sk"
        )
        report = run_loadtest(
            tiny_db, tiny_indexes["sif"], sk_queries, config
        )
        assert report.completed == config.total_queries
        assert report.errors == 0

    def test_summary_record_emitted(self, tiny_db, tiny_indexes, queries):
        from repro.obs.sinks import InMemorySink

        sink = InMemorySink()
        tiny_db.metrics.add_sink(sink)
        try:
            run_loadtest(
                tiny_db, tiny_indexes["sif"], queries,
                LoadTestConfig(qps=20.0, duration_seconds=0.5, workers=2),
            )
        finally:
            tiny_db.metrics.remove_sink(sink)
        summaries = [r for r in sink.records if r.get("type") == "loadtest"]
        assert summaries
        assert "row" in summaries[-1]


class TestConcurrentScrape:
    def test_counters_monotonic_while_driving(
        self, tiny_db, tiny_indexes, queries
    ):
        """A live scrape during the run sees counters only advance."""
        server = tiny_db.serve_telemetry(port=0)
        observed: list = []
        errors: list = []
        stop = threading.Event()

        def scrape_loop():
            pattern = re.compile(r"^repro_query_count (\d+)$", re.M)
            try:
                while not stop.is_set():
                    with urllib.request.urlopen(
                        server.url + "/metrics", timeout=5
                    ) as resp:
                        body = resp.read().decode()
                    match = pattern.search(body)
                    if match:
                        observed.append(int(match.group(1)))
            except Exception as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        scraper = threading.Thread(target=scrape_loop)
        scraper.start()
        try:
            config = LoadTestConfig(qps=40.0, duration_seconds=1.5, workers=4)
            report = run_loadtest(
                tiny_db, tiny_indexes["sif"], queries, config, label="scrape"
            )
        finally:
            stop.set()
            scraper.join()
            tiny_db.stop_telemetry()
        assert not errors
        assert report.completed == config.total_queries
        assert len(observed) >= 2, "scraper never caught the run"
        assert observed == sorted(observed), "counter went backwards"
        assert observed[-1] > observed[0]
