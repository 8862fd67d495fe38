"""Tests for the Prometheus exporter (repro.obs.export)."""

from repro.obs import export
from repro.obs.export import prometheus_text, write_prometheus
from repro.obs.metrics import MetricsRegistry


class TestPrometheus:
    def make_registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        for _ in range(6):
            registry.inc("query.count")
        for _ in range(14):
            registry.inc("distance_cache.hits")
        for value in (0.1, 0.2, 0.3, 0.4):
            registry.observe("stage.expansion.seconds", value)
        registry.histogram("stage.empty.seconds")  # never observed
        return registry

    def test_counters_and_summaries(self):
        text = prometheus_text(self.make_registry())
        assert "# TYPE repro_query_count counter" in text
        assert "repro_query_count 6" in text
        assert "# TYPE repro_stage_expansion_seconds summary" in text
        assert 'repro_stage_expansion_seconds{quantile="0.5"}' in text
        assert "repro_stage_expansion_seconds_sum 1.0" in text
        assert "repro_stage_expansion_seconds_count 4" in text

    def test_names_are_sanitised(self):
        text = prometheus_text(self.make_registry())
        assert "query.count" not in text
        assert "distance_cache.hits" not in text
        assert "repro_distance_cache_hits 14" in text

    def test_empty_histograms_are_skipped(self):
        text = prometheus_text(self.make_registry())
        assert "stage_empty" not in text
        assert "NaN" not in text

    def test_prefix_override(self, monkeypatch):
        monkeypatch.setattr(export, "PREFIX", "x")
        text = prometheus_text(self.make_registry())
        assert "x_query_count 6" in text

    def test_write(self, tmp_path):
        path = write_prometheus(tmp_path / "metrics.prom",
                                self.make_registry())
        content = path.read_text()
        assert content.endswith("\n")
        assert "repro_query_count 6" in content
