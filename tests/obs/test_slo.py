"""Tests for declarative SLO evaluation (repro.obs.slo)."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SLORule, SLOSpec

SNAPSHOT = {
    "counters": {
        "query.count": 100,
        "query.diversified_count": 40,
        "query.early_terminations": 18,
        "distance_cache.hits": 60,
        "distance_cache.misses": 40,
    },
    "histograms": {
        "query.wall_seconds": {
            "count": 100, "sum": 1.2, "mean": 0.012,
            "min": 0.001, "max": 0.09,
            "p50": 0.008, "p95": 0.03, "p99": 0.06,
        },
    },
}


class TestRuleValidation:
    def test_rejects_unknown_kind_and_op(self):
        with pytest.raises(ValueError):
            SLORule("x", "gauge", "m", "<=", 1)
        with pytest.raises(ValueError):
            SLORule("x", "counter", "m", "<", 1)

    def test_quantile_required_for_histogram_rules(self):
        with pytest.raises(ValueError):
            SLORule("x", "histogram_quantile", "m", "<=", 1, quantile=90)

    def test_ratio_needs_denominator(self):
        with pytest.raises(ValueError):
            SLORule("x", "counter_ratio", "hits", ">=", 0.5)


class TestEvaluation:
    def test_p95_latency_rule(self):
        rule = SLORule(
            "p95 latency", "histogram_quantile", "query.wall_seconds",
            "<=", 0.05, quantile=95,
        )
        check = rule.check(SNAPSHOT)
        assert check.passed and check.value == 0.03
        tight = SLORule(
            "p95 latency", "histogram_quantile", "query.wall_seconds",
            "<=", 0.02, quantile=95,
        ).check(SNAPSHOT)
        assert not tight.passed
        assert tight.render() == (
            "FAIL  p95 latency: query.wall_seconds = 0.03 (want <= 0.02)"
        )

    def test_cache_hit_rate_rule(self):
        rule = SLORule(
            "cache hit rate", "counter_ratio", "distance_cache.hits",
            ">=", 0.5,
            denominator=("distance_cache.hits", "distance_cache.misses"),
        )
        check = rule.check(SNAPSHOT)
        assert check.passed and check.value == pytest.approx(0.6)

    def test_early_termination_share_rule(self):
        rule = SLORule(
            "early-termination share", "counter_ratio",
            "query.early_terminations", ">=", 0.3,
            denominator=("query.diversified_count",),
        )
        check = rule.check(SNAPSHOT)
        assert check.passed and check.value == pytest.approx(0.45)

    def test_counter_rule(self):
        rule = SLORule("ran queries", "counter", "query.count", ">=", 1)
        assert rule.check(SNAPSHOT).passed

    def test_no_data_passes_with_skip(self):
        rule = SLORule(
            "absent", "histogram_quantile", "nope", "<=", 1, quantile=95
        )
        check = rule.check(SNAPSHOT)
        assert check.passed and check.no_data
        assert check.render() == "SKIP  absent: no data for nope"
        ratio = SLORule(
            "zero denom", "counter_ratio", "query.count", ">=", 0.5,
            denominator=("does.not.exist",),
        ).check(SNAPSHOT)
        assert ratio.passed and ratio.no_data


class TestSpec:
    def test_round_trip_and_evaluate(self):
        spec = SLOSpec("serving", [
            SLORule("p95", "histogram_quantile", "query.wall_seconds",
                    "<=", 0.05, quantile=95),
            SLORule("hit rate", "counter_ratio", "distance_cache.hits",
                    ">=", 0.5,
                    denominator=("distance_cache.hits",
                                 "distance_cache.misses")),
        ])
        rebuilt = SLOSpec.from_dict(spec.to_dict())
        checks = rebuilt.evaluate(SNAPSHOT)
        assert [c.passed for c in checks] == [True, True]
        assert spec.to_dict()["schema"] == "repro-slo-spec/v1"

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError):
            SLOSpec("empty", [])

    def test_against_live_registry_snapshot(self):
        registry = MetricsRegistry()
        registry.inc("query.count", 3)
        for value in (0.01, 0.02, 0.03):
            registry.observe("query.wall_seconds", value)
        spec = SLOSpec("live", [
            SLORule("count", "counter", "query.count", ">=", 3),
            SLORule("p99", "histogram_quantile", "query.wall_seconds",
                    "<=", 10.0, quantile=99),
        ])
        assert all(c.passed for c in spec.evaluate(registry.snapshot()))
