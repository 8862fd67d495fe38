"""Sliding-window rollup and live-SLO monitor tests."""

from __future__ import annotations

import threading

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.rollup import (
    DEFAULT_STREAM,
    LiveSLOMonitor,
    SlidingWindowRollup,
)
from repro.obs.slo import SLORule, SLOSpec
from repro.obs.slowlog import SlowQueryLog, SlowQueryThreshold


class FakeClock:
    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t


def make_rollup(**kwargs) -> "tuple[SlidingWindowRollup, FakeClock]":
    clock = FakeClock()
    kwargs.setdefault("window_seconds", 10.0)
    kwargs.setdefault("bucket_seconds", 1.0)
    return SlidingWindowRollup(clock=clock, **kwargs), clock


class TestSlidingWindowRollup:
    def test_empty_snapshot(self):
        rollup, _ = make_rollup()
        snap = rollup.snapshot()
        assert snap.count == 0
        assert snap.qps == 0.0
        assert snap.error_rate == 0.0
        assert snap.percentile(95) != snap.percentile(95)  # NaN

    def test_counts_and_qps(self):
        rollup, clock = make_rollup()
        for i in range(50):
            clock.t = i * 0.1  # 5 seconds of recording at 10/s
            rollup.record(0.001)
        snap = rollup.snapshot()
        assert snap.count == 50
        # Covered time is ~5s (clamped to actual recording span).
        assert snap.qps == pytest.approx(50 / snap.covered_seconds)
        assert 8.0 <= snap.qps <= 13.0

    def test_window_excludes_old_buckets(self):
        rollup, clock = make_rollup(window_seconds=5.0)
        rollup.record(1.0)
        clock.t = 100.0
        rollup.record(2.0)
        snap = rollup.snapshot()
        assert snap.count == 1
        assert snap.percentile(50) == pytest.approx(2.0)

    def test_error_rate(self):
        rollup, clock = make_rollup()
        for i in range(10):
            clock.t = i * 0.1
            rollup.record(0.01, error=(i < 2))
        snap = rollup.snapshot()
        assert snap.errors == 2
        assert snap.error_rate == pytest.approx(0.2)

    def test_percentiles_per_stream(self):
        rollup, clock = make_rollup()
        for i in range(100):
            clock.t = i * 0.01
            rollup.observe(float(i), "a")
            rollup.observe(1000.0 + i, "b")
        snap = rollup.snapshot()
        assert snap.percentile(50, stream="a") == pytest.approx(49.5, abs=2.0)
        assert snap.percentile(50, stream="b") == pytest.approx(1049.5, abs=2.0)
        assert snap.percentile(99, stream="a") <= 99.0

    def test_observed_samples_count_no_query(self):
        """A second latency view of a counted query adds samples only,
        even when it lands in a bucket the query was not counted in."""
        rollup, clock = make_rollup()
        rollup.record(0.01)
        rollup.observe(0.02, "observed")
        clock.t = 1.5
        rollup.observe(0.03, "observed")
        snap = rollup.snapshot()
        assert snap.count == 1
        assert snap.stream("observed")["count"] == 2
        assert snap.stream()["count"] == 1

    def test_narrower_window_requested(self):
        rollup, clock = make_rollup(window_seconds=10.0)
        for second in range(10):
            clock.t = float(second) + 0.5
            rollup.record(float(second))
        snap = rollup.snapshot(window_seconds=3.0)
        # Only the last ~3 buckets (seconds 7, 8, 9).
        assert snap.count == 3
        assert snap.percentile(50) == pytest.approx(8.0)

    def test_bounded_memory_per_bucket(self):
        rollup, clock = make_rollup(max_samples_per_bucket=32)
        for i in range(10_000):
            rollup.record(float(i))  # all in one bucket
        snap = rollup.snapshot()
        assert snap.count == 10_000
        # The per-bucket reservoir stays bounded; exact count survives.
        reservoirs = [
            len(b.streams[DEFAULT_STREAM]._samples)
            for b in rollup._buckets
            if DEFAULT_STREAM in b.streams
        ]
        assert reservoirs and all(n <= 32 for n in reservoirs)
        # Subsampled percentiles still track the distribution.
        assert snap.percentile(50) == pytest.approx(5000.0, rel=0.2)

    def test_concurrent_recording(self):
        rollup, _ = make_rollup()
        per_thread = 2000

        def work(base: float) -> None:
            for i in range(per_thread):
                rollup.record(base + (i % 100) / 100.0)

        threads = [
            threading.Thread(target=work, args=(t * 10.0,)) for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = rollup.snapshot()
        assert snap.count == 4 * per_thread
        assert snap.errors == 0
        p50 = snap.percentile(50)
        assert 0.0 <= p50 <= 31.0  # inside the recorded value range

    def test_to_slo_snapshot_shape(self):
        rollup, clock = make_rollup()
        for i in range(20):
            clock.t = i * 0.05
            rollup.record(0.010, error=(i == 0))
        shaped = rollup.snapshot().to_slo_snapshot()
        assert shaped["counters"]["window.count"] == 20
        assert shaped["counters"]["window.errors"] == 1
        assert shaped["counters"]["window.error_rate"] == pytest.approx(0.05)
        assert set(shaped["counters"]) == {
            "window.count", "window.errors", "window.qps", "window.error_rate",
        }
        hist = shaped["histograms"][DEFAULT_STREAM]
        assert hist["count"] == 20
        assert hist["p95"] == pytest.approx(0.010)

    def test_to_dict_is_jsonable(self):
        import json

        rollup, _ = make_rollup()
        rollup.record(0.5)
        json.dumps(rollup.snapshot().to_dict())

    def test_validation(self):
        with pytest.raises(ValueError):
            SlidingWindowRollup(window_seconds=0)
        with pytest.raises(ValueError):
            SlidingWindowRollup(bucket_seconds=0)
        with pytest.raises(ValueError):
            SlidingWindowRollup(window_seconds=1.0, bucket_seconds=2.0)


def make_spec(p95_threshold: float = 1.0, error_threshold: float = 0.5):
    return SLOSpec(
        name="live-test",
        rules=[
            SLORule(
                name="p95",
                kind="histogram_quantile",
                metric=DEFAULT_STREAM,
                op="<=",
                threshold=p95_threshold,
                quantile=95,
            ),
            SLORule(
                name="errors",
                kind="counter",
                metric="window.error_rate",
                op="<=",
                threshold=error_threshold,
            ),
        ],
    )


class TestLiveSLOMonitor:
    def test_passing_window(self):
        rollup, clock = make_rollup()
        metrics = MetricsRegistry()
        monitor = LiveSLOMonitor(make_spec(), rollup, metrics=metrics)
        for i in range(10):
            clock.t = i * 0.1
            rollup.record(0.001)
        checks = monitor.evaluate()
        assert all(c.passed for c in checks)
        verdict = monitor.verdict()
        assert verdict["passed"] is True
        assert verdict["breach_windows"] == 0
        assert verdict["evaluations"] == 1
        assert metrics.counters().get("slo.breaches", 0) == 0

    def test_breach_counts_into_metrics_and_slowlog(self):
        rollup, clock = make_rollup()
        metrics = MetricsRegistry()
        slowlog = SlowQueryLog(SlowQueryThreshold(latency_seconds=100.0))
        monitor = LiveSLOMonitor(
            make_spec(p95_threshold=0.001), rollup,
            metrics=metrics, slowlog=lambda: slowlog,
        )
        for i in range(10):
            clock.t = i * 0.1
            rollup.record(0.5)  # way over the 1 ms p95 bound
        checks = monitor.evaluate()
        assert any(not c.passed for c in checks)
        verdict = monitor.verdict()
        assert verdict["passed"] is False
        assert verdict["breach_windows"] == 1
        counters = metrics.counters()
        assert counters["slo.breaches"] == 1
        assert counters["slo.breach#p95"] == 1
        notes = [r for r in slowlog.records() if r["type"] == "slo_breach"]
        assert len(notes) == 1
        assert notes[0]["spec"] == "live-test"
        assert notes[0]["failed"][0]["rule"]["name"] == "p95"

    def test_breach_then_recovery(self):
        rollup, clock = make_rollup(window_seconds=2.0)
        metrics = MetricsRegistry()
        monitor = LiveSLOMonitor(
            make_spec(p95_threshold=0.01), rollup, metrics=metrics
        )
        rollup.record(1.0)
        monitor.evaluate()
        assert monitor.verdict()["passed"] is False
        # The slow window ages out; fresh traffic is fast.
        clock.t = 60.0
        rollup.record(0.001)
        monitor.evaluate()
        verdict = monitor.verdict()
        assert verdict["passed"] is True
        assert verdict["breach_windows"] == 1
        assert verdict["evaluations"] == 2

    def test_no_data_rules_skip(self):
        rollup, _ = make_rollup()
        monitor = LiveSLOMonitor(make_spec(), rollup)
        checks = monitor.evaluate()
        # Empty window: quantile rule has no data, rate rule sees 0.
        by_name = {c.rule.name: c for c in checks}
        assert by_name["p95"].no_data
        assert by_name["p95"].passed  # skip, not fail
