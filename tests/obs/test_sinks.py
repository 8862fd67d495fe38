"""Tests for metric record sinks (repro.obs.sinks)."""

import json
import math

import pytest

from repro.obs.sinks import JsonLinesSink
from tests.reference import InMemorySink


class TestInMemorySink:
    def test_collects_and_filters(self):
        sink = InMemorySink()
        sink.emit({"type": "query", "n": 1})
        sink.emit({"type": "workload", "n": 2})
        sink.emit({"type": "query", "n": 3})
        assert [r["n"] for r in sink.of_type("query")] == [1, 3]


class TestJsonLinesSink:
    def test_writes_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        with JsonLinesSink(path) as sink:
            sink.emit({"type": "query", "ms": 1.5})
            sink.emit({"type": "workload", "label": "SIF"})
            assert sink.records_written == 2
        lines = path.read_text().splitlines()
        assert [json.loads(line)["type"] for line in lines] == [
            "query", "workload",
        ]

    def test_appends_across_instances(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        with JsonLinesSink(path) as sink:
            sink.emit({"n": 1})
        with JsonLinesSink(path) as sink:
            sink.emit({"n": 2})
        assert len(path.read_text().splitlines()) == 2

    def test_non_json_values_are_coerced(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        with JsonLinesSink(path) as sink:
            sink.emit({"d": math.inf, "s": {1, 2}})
        record = json.loads(path.read_text())
        assert record["d"] == math.inf  # json accepts Infinity literals
        assert isinstance(record["s"], str)

    def test_emit_after_close_raises(self, tmp_path):
        sink = JsonLinesSink(tmp_path / "metrics.jsonl")
        sink.close()
        with pytest.raises(ValueError):
            sink.emit({"n": 1})
        sink.close()  # idempotent

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "dir" / "metrics.jsonl"
        with JsonLinesSink(path) as sink:
            sink.emit({"n": 1})
        assert path.exists()
