"""Flight recorder tests: digests, the ring, persistence, concurrency."""

from __future__ import annotations

import json
import threading
import urllib.request
from dataclasses import dataclass
from typing import List, Optional

import pytest

from repro.engine.plan import plan_diversified
from repro.obs.recorder import FlightRecorder, result_digest
from repro.workloads.queries import (
    WorkloadConfig,
    generate_diversified_queries,
)


# -- digest unit tests (duck-typed fakes; no database needed) ----------
@dataclass
class FakeObject:
    object_id: int


@dataclass
class FakeItem:
    object: FakeObject
    distance: float


@dataclass
class FakeResult:
    items: List[FakeItem]
    objective_value: Optional[float] = None


def fake_result(pairs, objective=None) -> FakeResult:
    return FakeResult(
        items=[FakeItem(FakeObject(oid), dist) for oid, dist in pairs],
        objective_value=objective,
    )


class TestResultDigest:
    def test_deterministic(self):
        a = fake_result([(1, 10.0), (2, 20.5)], objective=3.25)
        b = fake_result([(1, 10.0), (2, 20.5)], objective=3.25)
        assert result_digest(a) == result_digest(b)
        assert len(result_digest(a)) == 16

    def test_order_sensitive(self):
        a = fake_result([(1, 10.0), (2, 20.5)])
        b = fake_result([(2, 20.5), (1, 10.0)])
        assert result_digest(a) != result_digest(b)

    def test_membership_sensitive(self):
        a = fake_result([(1, 10.0), (2, 20.5)])
        b = fake_result([(1, 10.0), (3, 20.5)])
        assert result_digest(a) != result_digest(b)

    def test_distance_drift_sensitive(self):
        a = fake_result([(1, 10.0)])
        b = fake_result([(1, 10.001)])
        assert result_digest(a) != result_digest(b)

    def test_last_ulp_noise_absorbed(self):
        # Different summation orders perturb the last few ulps; the
        # 9-significant-digit rounding must absorb that.
        base = 1234.5678901234
        a = fake_result([(1, base)])
        b = fake_result([(1, base * (1.0 + 1e-14))])
        assert result_digest(a) == result_digest(b)

    def test_objective_included(self):
        a = fake_result([(1, 10.0)], objective=2.0)
        b = fake_result([(1, 10.0)], objective=2.5)
        assert result_digest(a) != result_digest(b)

    def test_empty_result(self):
        assert result_digest(fake_result([])) == result_digest(
            fake_result([])
        )


# -- recorder integration against a real database ----------------------
@pytest.fixture()
def recording_db(tiny_db):
    """The shared database with a recorder installed, cleaned up after."""
    yield tiny_db
    tiny_db.disable_flight_recorder()


def _plans(db, index, n=6, seed=31):
    queries = generate_diversified_queries(
        db, WorkloadConfig(num_queries=n, num_keywords=2, k=4, seed=seed)
    )
    return [
        plan_diversified(db, index, query, method="seq")
        for query in queries
    ]


class TestFlightRecorder:
    def test_one_record_per_query(self, recording_db, tiny_indexes):
        db = recording_db
        recorder = db.enable_flight_recorder()
        plans = _plans(db, tiny_indexes["sif"], n=4)
        for i, plan in enumerate(plans):
            db.engine.execute(plan, sequence=i)
        records = recorder.records()
        assert len(records) == 4
        for i, record in enumerate(records):
            assert record["type"] == "flight"
            assert record["kind"] == "diversified"
            assert record["label"] == "SIF/SEQ"
            assert record["algorithm"] == "seq"
            assert record["sequence"] == i
            assert record["digest"]
            assert record["results"] >= 0
            assert record["query"]["terms"] == sorted(
                plans[i].query.terms
            )
            assert record["hints"]["distance_backend"] == "csgraph"
            assert "candidates" in record["stats"]
        assert db.metrics.counters()["recorder.records"] >= 4

    def test_digest_stable_across_runs(self, recording_db, tiny_indexes):
        db = recording_db
        recorder = db.enable_flight_recorder()
        plans = _plans(db, tiny_indexes["sif"], n=3)
        for plan in plans:
            db.engine.execute(plan)
        first = [r["digest"] for r in recorder.records()]
        db.disable_flight_recorder()
        recorder = db.enable_flight_recorder()
        for plan in _plans(db, tiny_indexes["sif"], n=3):
            db.engine.execute(plan)
        assert [r["digest"] for r in recorder.records()] == first

    def test_ring_bounds_and_dropped_counter(self):
        recorder = FlightRecorder(max_records=3)
        for update in _fake_updates(5):
            recorder.record_update(update)
        assert len(recorder) == 3
        summary = recorder.summary()
        assert summary["dropped"] == 2
        assert summary["updates"] == 5
        assert summary["buffered"] == 3

    def test_max_records_validated(self):
        with pytest.raises(ValueError):
            FlightRecorder(max_records=0)

    def test_jsonl_persistence_header_first(
        self, recording_db, tiny_indexes, tmp_path
    ):
        db = recording_db
        path = tmp_path / "flight.jsonl"
        recorder = db.enable_flight_recorder(path=path)
        recorder.set_header(profile="TINY", scale=1.0, seed=5)
        for plan in _plans(db, tiny_indexes["sif"], n=2):
            db.engine.execute(plan)
        db.disable_flight_recorder()
        lines = [
            json.loads(line)
            for line in path.read_text().splitlines()
        ]
        assert lines[0]["type"] == "flight_header"
        assert lines[0]["version"] == 1
        assert lines[0]["profile"] == "TINY"
        flights = [r for r in lines if r["type"] == "flight"]
        assert len(flights) == 2
        assert all(r["digest"] for r in flights)


def _fake_updates(n):
    from repro.core.updates import UpdateRecord

    return [
        UpdateRecord(epoch=i + 1, kind="delete", edge_id=0, object_id=i)
        for i in range(n)
    ]


class TestUpdateJournalling:
    def test_committed_updates_journalled(self):
        # A private database: updates mutate state.
        from repro.datasets import build_dataset
        from repro.network.graph import NetworkPosition
        from tests.conftest import TINY_PROFILE

        db = build_dataset(TINY_PROFILE)
        index = db.build_index("sif")
        recorder = db.enable_flight_recorder()
        obj = db.insert_object(
            NetworkPosition(0, 1.0), {"pizza"}, indexes=(index,)
        )
        db.delete_object(obj.object_id, indexes=(index,))
        db.update_edge_weight(0, 123.0, indexes=(index,))
        records = recorder.records()
        assert [r["type"] for r in records] == ["flight_update"] * 3
        assert records[0]["kind"] == "insert"
        assert records[0]["object_id"] == obj.object_id
        assert records[0]["terms"] == ["pizza"]
        assert records[1]["kind"] == "delete"
        assert records[1]["object_id"] == obj.object_id
        assert records[2]["kind"] == "edge_weight"
        assert records[2]["weight"] == 123.0
        assert [r["epoch"] for r in records] == [1, 2, 3]
        db.disable_flight_recorder()


class TestConcurrentRecording:
    def test_execute_many_records_every_query_once(
        self, recording_db, tiny_indexes
    ):
        db = recording_db
        recorder = db.enable_flight_recorder()
        plans = _plans(db, tiny_indexes["sif"], n=8)
        db.engine.execute_many(plans, workers=4)
        records = recorder.records()
        assert len(records) == 8
        # Every batch sequence shows up exactly once, whatever order
        # the workers finished in.
        assert sorted(r["sequence"] for r in records) == list(range(8))
        by_seq = {r["sequence"]: r for r in records}

        # Re-run serially: digests must match the concurrent run's.
        db.disable_flight_recorder()
        recorder = db.enable_flight_recorder()
        db.engine.execute_many(_plans(db, tiny_indexes["sif"], n=8))
        serial = {r["sequence"]: r for r in recorder.records()}
        for seq in range(8):
            assert serial[seq]["digest"] == by_seq[seq]["digest"]

    def test_recorder_observed_monotonic_under_live_scrapes(
        self, recording_db, tiny_indexes
    ):
        db = recording_db
        recorder = db.enable_flight_recorder()
        server = db.serve_telemetry(port=0)
        seen = []
        stop = threading.Event()

        def scrape() -> None:
            while not stop.is_set():
                with urllib.request.urlopen(
                    server.url + "/recorder", timeout=10
                ) as resp:
                    payload = json.loads(resp.read())
                assert payload["installed"]
                seen.append(payload["summary"]["observed"])

        thread = threading.Thread(target=scrape, daemon=True)
        thread.start()
        try:
            plans = _plans(db, tiny_indexes["sif"], n=8)
            db.engine.execute_many(plans, workers=4)
        finally:
            stop.set()
            thread.join(timeout=10)
            db.stop_telemetry()
        assert not thread.is_alive()
        assert seen == sorted(seen), "observed count must be monotonic"
        assert recorder.summary()["observed"] == 8
        assert all(count <= 8 for count in seen)

    def test_recorder_gauges_exported(self, recording_db, tiny_indexes):
        from repro.obs.export import database_gauges

        db = recording_db
        db.enable_flight_recorder()
        for plan in _plans(db, tiny_indexes["sif"], n=2):
            db.engine.execute(plan)
        gauges = database_gauges(db)
        assert gauges["recorder.observed"] == 2
        assert gauges["recorder.buffered"] == 2
        assert gauges["recorder.dropped"] == 0
