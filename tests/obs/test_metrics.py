"""Tests for the observability primitives (repro.obs.metrics)."""

import math
import time

import pytest

from repro.obs.metrics import Histogram, MetricsRegistry, StageClock


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        m = MetricsRegistry()
        assert "x" not in m.counters()
        m.inc("x")
        for _ in range(4):
            m.inc("x")
        assert m.counters()["x"] == 5


class TestHistogram:
    def test_empty(self):
        h = Histogram("lat")
        assert h.count == 0
        # NaN, not 0.0: an empty histogram must not read as "observed
        # zero latency" in a report.
        assert math.isnan(h.percentile(50))
        assert math.isnan(h.mean)
        assert h.summary() == {"count": 0}

    def test_single_sample(self):
        h = Histogram("lat")
        h.observe(3.0)
        for p in (0, 50, 99, 100):
            assert h.percentile(p) == 3.0

    def test_percentiles_uniform(self):
        h = Histogram("lat")
        for i in range(1, 101):
            h.observe(float(i))
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 100.0
        assert h.percentile(50) == pytest.approx(50.5)
        assert h.percentile(95) == pytest.approx(95.05)
        assert h.percentile(99) == pytest.approx(99.01)

    def test_summary_fields(self):
        h = Histogram("lat")
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 3
        assert s["sum"] == pytest.approx(6.0)
        assert s["mean"] == pytest.approx(2.0)
        assert s["min"] == 1.0
        assert s["max"] == 3.0

    def test_observe_order_does_not_matter(self):
        a, b = Histogram("a"), Histogram("b")
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        for v in values:
            a.observe(v)
        for v in sorted(values):
            b.observe(v)
        assert a.percentile(50) == b.percentile(50) == 3.0

    def test_subsampling_bounds_memory(self):
        h = Histogram("lat", max_samples=64)
        for i in range(10_000):
            h.observe(float(i))
        assert h.count == 10_000          # exact
        assert h.max == 9999.0            # exact
        assert len(h._samples) <= 64 + 1  # bounded
        # Percentiles stay approximately right after subsampling.
        assert h.percentile(50) == pytest.approx(5000, rel=0.25)


class TestStageClock:
    def test_accumulates(self):
        clock = StageClock()
        clock.add("a", 0.5)
        clock.add("a", 0.25)
        clock.add("b", 1.0)
        assert clock.stages == {"a": 0.75, "b": 1.0}

    def test_context_manager_measures(self):
        clock = StageClock()
        with clock.stage("sleep"):
            time.sleep(0.01)
        assert clock.stages["sleep"] >= 0.009

    def test_timed_iter_charges_production_time(self):
        clock = StageClock()

        def slow_gen():
            for i in range(3):
                time.sleep(0.005)
                yield i

        items = list(clock.timed_iter(slow_gen(), "gen"))
        assert items == [0, 1, 2]
        assert clock.stages["gen"] >= 0.014

    def test_timed_iter_close_closes_inner(self):
        closed = []

        def gen():
            try:
                for i in range(100):
                    yield i
            finally:
                closed.append(True)

        clock = StageClock()
        stream = clock.timed_iter(gen(), "gen")
        assert next(stream) == 0
        stream.close()
        assert closed == [True]


class TestMetricsRegistry:
    def test_histogram_identity(self):
        m = MetricsRegistry()
        assert m.histogram("h") is m.histogram("h")

    def test_inc_and_observe(self):
        m = MetricsRegistry()
        for _ in range(2):
            m.inc("queries")
        m.observe("lat", 1.5)
        m.observe("lat", 2.5)
        assert m.counters() == {"queries": 2}
        assert m.histogram("lat").mean == pytest.approx(2.0)

    def test_observe_stages(self):
        m = MetricsRegistry()
        m.observe_stages({"expansion": 0.1, "greedy": 0.2})
        assert m.histogram("stage.expansion.seconds").count == 1
        assert m.histogram("stage.greedy.seconds").count == 1

    def test_snapshot_is_jsonable(self):
        import json

        m = MetricsRegistry()
        m.inc("a")
        m.observe("b", 1.0)
        json.dumps(m.snapshot())

    def test_emit_fans_out_to_sinks(self):
        from tests.reference import InMemorySink

        m = MetricsRegistry()
        s1, s2 = InMemorySink(), InMemorySink()
        m.add_sink(s1)
        m.add_sink(s2)
        m.emit({"type": "query", "n": 1})
        assert s1.records == s2.records == [{"type": "query", "n": 1}]
        m.remove_sink(s2)
        m.emit({"type": "query", "n": 2})
        assert len(s1.records) == 2
        assert len(s2.records) == 1

    def test_snapshot_omits_empty_histograms(self):
        m = MetricsRegistry()
        m.observe("real", 1.0)
        m.histogram("empty")  # created but never observed
        snap = m.snapshot()
        assert "real" in snap["histograms"]
        assert "empty" not in snap["histograms"]
