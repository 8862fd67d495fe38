"""Tests for the slow-query log (repro.obs.slowlog)."""

import json

import pytest

from repro.core.queries import QueryStats
from repro.engine import plan_diversified
from repro.obs.events import stats_to_dict
from repro.obs.slowlog import (
    SlowQueryLog,
    SlowQueryThreshold,
    render_record,
)
from repro.storage.iostats import IOSnapshot
from repro.workloads.queries import WorkloadConfig, generate_diversified_queries
from tests.conftest import make_query_event


def _stats(wall=0.01, nodes=100):
    return QueryStats(wall_seconds=wall, nodes_accessed=nodes)


class TestThreshold:
    def test_requires_at_least_one_bound(self):
        with pytest.raises(ValueError):
            SlowQueryThreshold()
        with pytest.raises(ValueError):
            SlowQueryThreshold(latency_seconds=-1)
        with pytest.raises(ValueError):
            SlowQueryThreshold(visited_nodes=-1)

    def test_exceeded_is_inclusive(self):
        t = SlowQueryThreshold(latency_seconds=0.01, visited_nodes=50)
        assert t.exceeded(0.01, 49) == ["latency"]
        assert t.exceeded(0.009, 50) == ["visited_nodes"]
        assert t.exceeded(0.02, 60) == ["latency", "visited_nodes"]
        assert t.exceeded(0.005, 10) == []

    def test_zero_latency_matches_everything(self):
        t = SlowQueryThreshold(latency_seconds=0)
        assert t.exceeded(0.0) == ["latency"]

    def test_verdict_wording(self):
        t = SlowQueryThreshold(latency_seconds=0.01)
        assert t.verdict(0.02).startswith("SLOW — ")
        assert t.verdict(0.001).startswith("OK — ")


class TestSlowQueryLog:
    def test_capture_and_skip(self):
        log = SlowQueryLog(SlowQueryThreshold(latency_seconds=0.01))
        assert log.offer(
            make_query_event("SIF/COM", _stats(wall=0.005))
        ) is None
        record = log.offer(make_query_event("SIF/COM", _stats(wall=0.02)))
        assert record is not None
        assert record["label"] == "SIF/COM"
        assert record["kind"] == "diversified"
        assert record["algorithm"] == "com"
        assert record["exceeded"] == ["latency"]
        assert record["stats"]["wall_seconds"] == 0.02
        assert len(log) == 1
        summary = log.summary()
        assert summary["observed"] == 2 and summary["captured"] == 1

    def test_bounded_keeps_most_recent(self):
        log = SlowQueryLog(
            SlowQueryThreshold(latency_seconds=0), max_records=2
        )
        for i in range(4):
            log.offer(make_query_event(f"L{i}/INE", _stats()))
        records = log.records()
        assert [r["label"] for r in records] == ["L2/INE", "L3/INE"]
        assert log.dropped == 2

    def test_jsonl_sink_flushes_per_record(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        log = SlowQueryLog(
            SlowQueryThreshold(latency_seconds=0), path=path
        )
        log.offer(make_query_event("SIF/INE", _stats()))
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["type"] == "slow_query"
        assert record["worker"] == "MainThread"
        log.close()

    def test_render_without_trace_falls_back_to_stages(self):
        stats = _stats(wall=0.02)
        stats.stage_seconds["expansion"] = 0.015
        log = SlowQueryLog(SlowQueryThreshold(latency_seconds=0))
        record = log.offer(make_query_event("SIF/COM", stats))
        text = render_record(record)
        assert "SLOW QUERY #1" in text
        assert "expansion" in text
        assert "run with tracing on" in text

    def test_stats_to_dict_includes_io_when_present(self):
        stats = _stats()
        assert stats_to_dict(stats)["io"] is None
        stats.io = IOSnapshot(5, 2, 0, 3, {})
        assert stats_to_dict(stats)["io"] == {
            "logical_reads": 5, "physical_reads": 2, "buffer_hits": 3,
        }


class TestEngineIntegration:
    @pytest.fixture(scope="class")
    def sif(self, tiny_db):
        return tiny_db.build_index("sif", file_prefix="slowlog-sif")

    def test_traced_offenders_carry_span_trees(self, tiny_db, sif):
        tiny_db.enable_tracing()
        log = tiny_db.enable_slow_query_log(latency_seconds=0.0)
        try:
            queries = generate_diversified_queries(
                tiny_db,
                WorkloadConfig(num_queries=6, num_keywords=2, k=4, seed=81),
            )
            plans = [
                plan_diversified(tiny_db, sif, q, method="com")
                for q in queries
            ]
            tiny_db.engine.execute_many(plans, workers=3)
            records = log.records()
            assert len(records) == len(plans)
            for record in records:
                assert record["label"] == f"{sif.name}/COM"
                assert record["trace"] is not None
                assert record["trace"]["name"] == "query.diversified"
                assert record["worker"].startswith("repro-query")
                rendered = render_record(record)
                assert "SLOW QUERY" in rendered
                assert "diversified query" in rendered
        finally:
            tiny_db.disable_slow_query_log()
            tiny_db.trace_bounds = None

    def test_fast_queries_not_captured(self, tiny_db, sif):
        log = tiny_db.enable_slow_query_log(latency_seconds=3600.0)
        try:
            queries = generate_diversified_queries(
                tiny_db,
                WorkloadConfig(num_queries=2, num_keywords=2, k=4, seed=82),
            )
            plans = [
                plan_diversified(tiny_db, sif, q, method="seq")
                for q in queries
            ]
            tiny_db.engine.execute_many(plans)
            assert len(log) == 0
            assert log.summary()["observed"] == len(plans)
        finally:
            tiny_db.disable_slow_query_log()


class TestTolerantRendering:
    def test_malformed_span_tree_falls_back_to_stats(self):
        stats = _stats(wall=0.02)
        stats.stage_seconds["expansion"] = 0.015
        log = SlowQueryLog(SlowQueryThreshold(latency_seconds=0))
        record = log.offer(make_query_event("SIF/COM", stats))
        record["trace"] = {"not": "a span tree"}
        text = render_record(record)
        assert "SLOW QUERY #1" in text
        assert "span tree malformed" in text
        assert "expansion" in text

    def test_retired_span_attributes_are_ignored(self):
        """Logs written before COM's second upper-bound source was
        retired carry ``ub_*_wins`` counters on ``com.maintenance``;
        span attributes the renderer no longer knows are skipped."""
        log = SlowQueryLog(SlowQueryThreshold(latency_seconds=0))
        record = log.offer(make_query_event("SIF/COM", _stats(wall=0.02)))
        record["trace"] = {
            "name": "query.diversified", "duration": 0.02,
            "attrs": {"method": "COM"},
            "children": [{
                "name": "com.maintenance", "duration": 0.01,
                "attrs": {
                    "candidates": 9, "theta_evaluations": 12,
                    "ub_triangle_wins": 30, "ub_other_wins": 0,
                },
            }],
        }
        text = render_record(record)
        assert "span tree malformed" not in text
        assert "COM maintenance: 9 candidates, 12 θ evaluations" in text
        assert "wins" not in text

    def test_header_carries_epoch(self):
        stats = _stats(wall=0.02)
        stats.epoch = 7
        log = SlowQueryLog(SlowQueryThreshold(latency_seconds=0))
        record = log.offer(make_query_event("SIF/COM", stats))
        text = render_record(record)
        assert "[epoch 7]" in text
        # The planner's estimate sits beside the realised count when the
        # record has one (this event's plan carries no hints).
        assert "100 nodes visited (exceeded" in text
        record["hints"] = {"estimated_matches": 12.34}
        assert (
            "100 nodes visited, est. 12.3 → 0 candidates (exceeded"
            in render_record(record)
        )

    def test_pre_epoch_records_render(self):
        """Records from older schemas (no epoch) still render."""
        record = {
            "type": "slow_query", "seq": 1, "label": "L",
            "wall_seconds": 0.01, "nodes_accessed": 5,
            "exceeded": ["latency"], "worker": "w",
            "stats": {"stage_seconds": {"expansion": 0.01}},
        }
        text = render_record(record)
        assert "SLOW QUERY #1" in text
        assert "[epoch" not in text

    def test_null_wall_time_renders_as_unknown(self):
        record = {
            "type": "slow_query", "seq": 1, "label": "L",
            "wall_seconds": None, "exceeded": ["latency"],
            "stats": {"nodes_accessed": 5},
        }
        text = render_record(record)
        assert "SLOW QUERY #1  [L]  ? ms, 5 nodes visited" in text

    def test_record_from_before_the_one_encoding_renders(self):
        """A slow record as the parent of the per-query event wrote it:
        ``nodes_accessed`` / ``distance_backend`` repeated at top level,
        ``stats.distance_cache`` nested, no query parameters."""
        record = {
            "type": "slow_query", "seq": 1, "label": "SIF/COM",
            "kind": "diversified", "algorithm": "com",
            "distance_backend": "csgraph", "worker": "MainThread",
            "wall_seconds": 0.0229, "nodes_accessed": 7, "results": 3,
            "exceeded": ["latency"],
            "threshold": {"latency_seconds": 0.0, "visited_nodes": None},
            "stats": {
                "wall_seconds": 0.0229, "nodes_accessed": 7,
                "candidates": 3, "epoch": 0, "result_cache_hit": False,
                "stage_seconds": {"expansion": 0.0004, "maintenance": 0.0223},
                "distance_cache": {"hits": 7, "misses": 2, "evictions": 0},
                "io": {"logical_reads": 13, "physical_reads": 3,
                       "buffer_hits": 10},
            },
            "trace": None,
        }
        text = render_record(record)
        assert "SLOW QUERY #1  [SIF/COM]  22.900 ms, 7 nodes visited" in text
        assert "stages: maintenance 22.300 ms, expansion 0.400 ms" in text

    def test_note_appends_and_respects_bound(self):
        log = SlowQueryLog(
            SlowQueryThreshold(latency_seconds=0), max_records=2
        )
        log.offer(make_query_event("L/INE", _stats()))
        log.note({"type": "slo_breach", "spec": "s", "window": {}, "failed": []})
        log.note({"type": "slo_breach", "spec": "s2", "window": {}, "failed": []})
        records = log.records()
        assert len(records) == 2
        assert log.dropped == 1
        assert records[-1]["spec"] == "s2"

    def test_note_streams_to_sink(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        log = SlowQueryLog(
            SlowQueryThreshold(latency_seconds=0), path=path
        )
        log.note({"type": "slo_breach", "spec": "s", "window": {}, "failed": []})
        log.close()
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0]["type"] == "slo_breach"

    def test_render_breach_record(self):
        from repro.obs.slowlog import render_breach_record

        record = {
            "type": "slo_breach",
            "spec": "live",
            "window": {
                "window_seconds": 10.0, "count": 42, "qps": 4.2,
                "error_rate": 0.25,
            },
            "failed": [{
                "rule": {
                    "name": "p95", "metric": "query.wall_seconds",
                    "op": "<=", "threshold": 0.001,
                },
                "value": 0.5,
            }],
        }
        text = render_breach_record(record)
        assert "SLO BREACH" in text
        assert "[live]" in text
        assert "42 queries" in text
        assert "error rate 25.0%" in text
        # The one spelling of a check line (repro.obs.slo.render_check).
        assert text.splitlines()[1] == (
            "  FAIL  p95: query.wall_seconds = 0.5 (want <= 0.001)"
        )
        # render_record routes breach notes to the breach renderer.
        assert render_record(record) == text
