"""Sliding-window rollup and live-SLO monitor tests."""

from __future__ import annotations

import math
import threading

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.rollup import DEFAULT_STREAM, SlidingWindowRollup
from repro.obs.slo import SLOMonitor, SLORule, SLOSpec
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


def finished(snap) -> int:
    """Every query the window saw finish, failed ones included."""
    return snap["counters"]["query.count"] + snap["counters"]["query.errors"]


def p(snap, q: int, stream: str = DEFAULT_STREAM) -> float:
    """The window's ``q``-th percentile of ``stream``; NaN when empty."""
    summary = snap["histograms"].get(stream)
    return summary[f"p{q}"] if summary else math.nan


class TestSlidingWindowRollup:
    def test_empty_snapshot(self):
        rollup, _ = make_rollup()
        snap = rollup.snapshot()
        assert finished(snap) == 0
        assert snap["counters"]["window.qps"] == 0.0
        assert snap["counters"]["window.error_rate"] == 0.0
        assert math.isnan(p(snap, 95))

    def test_counts_and_qps(self):
        rollup, clock = make_rollup()
        for i in range(50):
            clock.t = i * 0.1  # 5 seconds of recording at 10/s
            rollup.record(0.001)
        counters = rollup.snapshot()["counters"]
        assert counters["query.count"] == 50
        # Covered time is ~5s (clamped to actual recording span).
        qps = counters["window.qps"]
        assert qps == pytest.approx(50 / counters["window.covered_seconds"])
        assert 8.0 <= qps <= 13.0

    def test_window_excludes_old_buckets(self):
        rollup, clock = make_rollup(window_seconds=5.0)
        rollup.record(1.0)
        clock.t = 100.0
        rollup.record(2.0)
        snap = rollup.snapshot()
        assert finished(snap) == 1
        assert p(snap, 50) == pytest.approx(2.0)

    def test_error_rate(self):
        rollup, clock = make_rollup()
        for i in range(10):
            clock.t = i * 0.1
            rollup.record(0.01, error=(i < 2))
        counters = rollup.snapshot()["counters"]
        assert counters["query.errors"] == 2
        assert counters["window.error_rate"] == pytest.approx(0.2)

    def test_percentiles_per_stream(self):
        rollup, clock = make_rollup()
        for i in range(100):
            clock.t = i * 0.01
            rollup.observe(float(i), "a")
            rollup.observe(1000.0 + i, "b")
        snap = rollup.snapshot()
        assert p(snap, 50, stream="a") == pytest.approx(49.5, abs=2.0)
        assert p(snap, 50, stream="b") == pytest.approx(1049.5, abs=2.0)
        assert p(snap, 99, stream="a") <= 99.0

    def test_observed_samples_count_no_query(self):
        """A second latency view of a counted query adds samples only,
        even when it lands in a bucket the query was not counted in."""
        rollup, clock = make_rollup()
        rollup.record(0.01)
        rollup.observe(0.02, "observed")
        clock.t = 1.5
        rollup.observe(0.03, "observed")
        snap = rollup.snapshot()
        assert finished(snap) == 1
        assert snap["histograms"]["observed"]["count"] == 2
        assert snap["histograms"][DEFAULT_STREAM]["count"] == 1

    def test_narrower_window_requested(self):
        rollup, clock = make_rollup(window_seconds=10.0)
        for second in range(10):
            clock.t = float(second) + 0.5
            rollup.record(float(second))
        snap = rollup.snapshot(window_seconds=3.0)
        # Only the last ~3 buckets (seconds 7, 8, 9).
        assert finished(snap) == 3
        assert p(snap, 50) == pytest.approx(8.0)

    def test_bounded_memory_per_bucket(self):
        rollup, clock = make_rollup(max_samples_per_bucket=32)
        for i in range(10_000):
            rollup.record(float(i))  # all in one bucket
        snap = rollup.snapshot()
        assert finished(snap) == 10_000
        # The per-bucket reservoir stays bounded; exact count survives.
        reservoirs = [
            len(b.streams[DEFAULT_STREAM]._samples)
            for b in rollup._buckets
            if DEFAULT_STREAM in b.streams
        ]
        assert reservoirs and all(n <= 32 for n in reservoirs)
        # Subsampled percentiles still track the distribution.
        assert p(snap, 50) == pytest.approx(5000.0, rel=0.2)

    def test_buckets_kept_at_different_strides_weigh_by_queries(self):
        """A busy bucket subsampled at a coarse stride is not outweighed
        by a quiet one kept whole: 2 048 queries at 1 ms then 100 at
        100 ms is a window whose p95 is 1 ms."""
        rollup, clock = make_rollup(window_seconds=2.0, bucket_seconds=1.0)
        for _ in range(2048):
            rollup.record(0.001)
        clock.t = 1.5
        for _ in range(100):
            rollup.record(0.100)
        snap = rollup.snapshot()
        assert finished(snap) == 2148
        assert p(snap, 95) == pytest.approx(0.001)
        assert p(snap, 99) == pytest.approx(0.100)

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
        assert finished(snap) == 4 * per_thread
        assert snap["counters"]["query.errors"] == 0
        p50 = p(snap, 50)
        assert 0.0 <= p50 <= 31.0  # inside the recorded value range

    def test_snapshot_has_the_registry_shape(self):
        rollup, clock = make_rollup()
        for i in range(20):
            clock.t = i * 0.05
            rollup.record(0.010, error=(i == 0))
        shaped = rollup.snapshot()
        assert set(shaped) == {"counters", "histograms"}
        assert shaped["counters"]["query.count"] == 19
        assert shaped["counters"]["query.errors"] == 1
        assert shaped["counters"]["window.error_rate"] == pytest.approx(0.05)
        assert set(shaped["counters"]) == {
            "query.count", "query.errors", "window.seconds",
            "window.covered_seconds", "window.qps", "window.error_rate",
        }
        hist = shaped["histograms"][DEFAULT_STREAM]
        assert hist["count"] == 20
        assert hist["p95"] == pytest.approx(0.010)
        # The same keys a registry histogram summary has.
        registry = MetricsRegistry()
        registry.observe(DEFAULT_STREAM, 0.010)
        assert set(hist) == set(
            registry.snapshot()["histograms"][DEFAULT_STREAM]
        )

    def test_snapshot_is_jsonable(self):
        import json

        rollup, _ = make_rollup()
        rollup.record(0.5)
        json.dumps(rollup.snapshot())

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
        monitor = SLOMonitor(make_spec(), rollup.snapshot, metrics=metrics)
        for i in range(10):
            clock.t = i * 0.1
            rollup.record(0.001)
        checks = monitor.evaluate()
        assert all(c["passed"] for c in checks)
        verdict = monitor.verdict()
        assert verdict["passed"] is True
        assert verdict["breach_windows"] == 0
        assert verdict["evaluations"] == 1
        assert metrics.counters().get("slo.breaches", 0) == 0

    def test_breach_counts_into_metrics_and_slowlog(self):
        rollup, clock = make_rollup()
        metrics = MetricsRegistry()
        slowlog = SlowQueryLog(SlowQueryThreshold(latency_seconds=100.0))
        monitor = SLOMonitor(
            make_spec(p95_threshold=0.001), rollup.snapshot,
            metrics=metrics, slowlog=lambda: slowlog,
        )
        for i in range(10):
            clock.t = i * 0.1
            rollup.record(0.5)  # way over the 1 ms p95 bound
        checks = monitor.evaluate()
        assert any(not c["passed"] for c in checks)
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
        monitor = SLOMonitor(
            make_spec(p95_threshold=0.01), rollup.snapshot, metrics=metrics
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
        monitor = SLOMonitor(make_spec(), rollup.snapshot)
        checks = monitor.evaluate()
        # Empty window: quantile rule has no data, rate rule sees 0.
        by_name = {c["rule"]["name"]: c for c in checks}
        assert by_name["p95"]["no_data"]
        assert by_name["p95"]["passed"]  # skip, not fail
