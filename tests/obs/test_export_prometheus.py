"""Prometheus exposition correctness: names, labels, HELP/TYPE, gauges."""

from __future__ import annotations

import math
import re
import threading

from repro.obs.export import (
    VALID_LABEL_NAME,
    VALID_METRIC_NAME,
    database_gauges,
    escape_label_value,
    prometheus_text,
)
from repro.obs.metrics import MetricsRegistry


def sample_lines(text: str):
    return [ln for ln in text.splitlines() if ln and not ln.startswith("#")]


class TestEscaping:
    def test_escape_label_value(self):
        assert escape_label_value("SIF/COM") == "SIF/COM"
        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("a\nb") == "a\\nb"

    def test_plan_label_with_slash_round_trips(self):
        registry = MetricsRegistry()
        for _ in range(3):
            registry.inc("query.plan#SIF/COM")
        registry.inc('query.plan#weird"label\nx')
        text = prometheus_text(registry)
        assert 'repro_query_plan{plan="SIF/COM"} 3' in text
        assert 'repro_query_plan{plan="weird\\"label\\nx"} 1' in text

    def test_all_names_valid(self):
        registry = MetricsRegistry()
        registry.inc("query.plan#SIF/COM")
        registry.inc("weird metric name!!")
        registry.inc("slo.breach#p95-rule")
        registry.observe("stage.greedy.seconds", 0.01)
        text = prometheus_text(
            registry, gauges={"bad gauge/name": 1.0, "ok_gauge": 2.0}
        )
        for line in sample_lines(text):
            name = re.split(r"[{ ]", line, maxsplit=1)[0]
            assert VALID_METRIC_NAME.match(name), line
            for label in re.findall(r'(\w+)=(?=")', line):
                assert VALID_LABEL_NAME.match(label), line


class TestFamilies:
    def test_help_and_type_once_per_family(self):
        registry = MetricsRegistry()
        registry.inc("query.plan#A")
        registry.inc("query.plan#B")
        registry.inc("query.plan#C")
        text = prometheus_text(registry)
        assert text.count("# TYPE repro_query_plan counter") == 1
        assert text.count("# HELP repro_query_plan") == 1
        # All three labelled samples share the single family.
        assert len(re.findall(r"^repro_query_plan\{", text, re.M)) == 3

    def test_colliding_raw_names_share_one_family(self):
        registry = MetricsRegistry()
        registry.inc("query.a-b")
        for _ in range(2):  # sanitizes to the same family
            registry.inc("query.a/b")
        text = prometheus_text(registry)
        assert text.count("# TYPE repro_query_a_b counter") == 1
        values = sorted(
            int(m)
            for m in re.findall(r"^repro_query_a_b (\d+)$", text, re.M)
        )
        assert values == [1, 2]

    def test_every_counter_round_trips(self):
        registry = MetricsRegistry()
        expected = {}
        for i, name in enumerate(
            ("query.count", "buffer.hits", "cache.miss", "x.y.z")
        ):
            for _ in range(i + 1):
                registry.inc(name)
            expected["repro_" + name.replace(".", "_")] = i + 1
        text = prometheus_text(registry)
        parsed = {}
        for line in sample_lines(text):
            name, value = line.rsplit(" ", 1)
            if "{" not in name:
                parsed[name] = float(value)
        for name, value in expected.items():
            assert parsed[name] == value

    def test_histogram_summary_shape(self):
        registry = MetricsRegistry()
        for i in range(100):
            registry.observe("query.wall_seconds", i / 1000.0)
        text = prometheus_text(registry)
        assert "# TYPE repro_query_wall_seconds summary" in text
        assert re.search(
            r'repro_query_wall_seconds\{quantile="0.5"\} [\d.]+', text
        )
        assert "repro_query_wall_seconds_count 100" in text
        assert "repro_query_wall_seconds_sum" in text
        assert "NaN" not in text

    def test_gauges_match_snapshot(self):
        registry = MetricsRegistry()
        gauges = {"buffer_pool_size": 128.0, "distance_cache_entries": 42.0}
        text = prometheus_text(registry, gauges=gauges)
        for name, value in gauges.items():
            match = re.search(rf"^repro_{name} ([\d.]+)$", text, re.M)
            assert match, name
            assert float(match.group(1)) == value
        assert text.count("# TYPE repro_buffer_pool_size gauge") == 1

    def test_non_finite_gauges_skipped(self):
        registry = MetricsRegistry()
        text = prometheus_text(
            registry, gauges={"bad": math.nan, "worse": math.inf, "ok": 1.0}
        )
        assert "repro_ok 1.0" in text
        assert "repro_bad" not in text
        assert "repro_worse" not in text


class TestConcurrentScrape:
    def test_scrape_during_recording(self):
        registry = MetricsRegistry()
        stop = threading.Event()
        errors = []

        def writer():
            i = 0
            while not stop.is_set():
                registry.observe("query.wall_seconds", (i % 100) / 1e4)
                registry.inc("query.count")
                registry.inc(f"query.plan#P{i % 3}")
                i += 1

        def scraper():
            try:
                for _ in range(50):
                    text = prometheus_text(registry)
                    assert "repro_query_count" in text
            except Exception as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        writers = [threading.Thread(target=writer) for _ in range(3)]
        scrape = threading.Thread(target=scraper)
        for t in writers:
            t.start()
        scrape.start()
        scrape.join()
        stop.set()
        for t in writers:
            t.join()
        assert not errors

    def test_database_gauges_export(self, tiny_db):
        text = prometheus_text(
            tiny_db.metrics, gauges=database_gauges(tiny_db)
        )
        for line in sample_lines(text):
            name = re.split(r"[{ ]", line, maxsplit=1)[0]
            assert VALID_METRIC_NAME.match(name), line
