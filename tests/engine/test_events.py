"""The per-query event: built once, published once, encoded once.

``QueryEngine.execute`` tells the database about every finished or
failed query through one :class:`~repro.obs.events.QueryEvent`; the
registry, the rollup, the slow-query log and the flight recorder are
subscribers.  These tests pin the fan-out (exactly once, to everyone
installed, under any worker count), the laziness (nothing derived when
nobody asks) and what a *failed* query may and may not touch.
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import pytest

from repro import QueryStats
from repro.datasets import build_dataset
from repro.engine.plan import plan_diversified, plan_sk
from repro.obs import events
from repro.obs import rollup as rollup_module
from repro.obs.events import QueryEvent
from repro.obs.rollup import DEFAULT_STREAM, SlidingWindowRollup
from repro.obs.slo import SLORule, SLOSpec
from repro.workloads.queries import (
    WorkloadConfig,
    generate_diversified_queries,
    generate_sk_queries,
)
from tests.conftest import TINY_PROFILE, make_query_event
from tests.reference import InMemorySink


@pytest.fixture(autouse=True)
def minute_window(monkeypatch):
    """Rollups here keep a minute, so a slow run loses no query."""
    monkeypatch.setattr(rollup_module, "WINDOW_SECONDS", 60.0)


@pytest.fixture()
def db():
    """A private database: these tests install and remove subscribers."""
    return build_dataset(TINY_PROFILE)


@pytest.fixture()
def sif(db):
    return db.build_index("sif")


def _plans(db, index, n=12, seed=17):
    queries = generate_diversified_queries(
        db, WorkloadConfig(num_queries=n, num_keywords=2, k=4, seed=seed)
    )
    return [plan_diversified(db, index, q, method="com") for q in queries]


class TestOneEncoding:
    def test_every_stats_field_is_encoded(self):
        """A field added to ``QueryStats`` cannot be forgotten by an
        encoder: the encoded ``stats`` has a key per dataclass field."""
        encoded = make_query_event().to_dict()["stats"]
        for field in dataclasses.fields(QueryStats):
            assert field.name in encoded, field.name

    def test_records_are_the_event_plus_their_own_keys(self, db, sif):
        sink = InMemorySink()
        db.metrics.add_sink(sink)
        log = db.enable_slow_query_log(latency_seconds=0.0)
        recorder = db.enable_flight_recorder()
        plans = _plans(db, sif, n=3)
        db.engine.execute_many(plans)
        lines = sink.of_type("query")
        assert len(lines) == len(log) == len(recorder) == 3
        # The planner's prediction rides beside stats.candidates.
        assert [line["hints"]["estimated_matches"] for line in lines] == [
            plan.hints.estimated_matches for plan in plans
        ]
        for line, slow, flight in zip(lines, log.records(), recorder.records()):
            shared = {k: v for k, v in line.items() if k != "type"}
            assert set(slow) - set(shared) == {
                "type", "seq", "digest", "exceeded", "threshold", "trace",
            }
            assert set(flight) - set(shared) == {"type", "seq", "digest"}
            for record in (slow, flight):
                assert {k: record[k] for k in shared} == shared
            # The nested snapshot is literally the same object: the
            # query was encoded once, not three times.
            assert line["stats"] is slow["stats"] is flight["stats"]

    def test_slow_record_always_carries_its_digest(self, db, sif):
        """No recorder installed: the digest is still there."""
        log = db.enable_slow_query_log(latency_seconds=0.0)
        result = db.engine.execute(_plans(db, sif, n=1)[0])
        (record,) = log.records()
        assert record["digest"] == events.result_digest(result)


class TestNothingForNobody:
    def test_default_database_derives_nothing(self, db, sif, monkeypatch):
        """No sink, slow log or recorder (the ``perf/`` configuration):
        a query builds no record dict, no digest, reads no thread name."""

        def refuse(*args, **kwargs):
            raise AssertionError("derived for nobody")

        monkeypatch.setattr(QueryEvent, "to_dict", refuse)
        monkeypatch.setattr(QueryEvent, "worker", property(refuse))
        monkeypatch.setattr(events, "result_digest", refuse)
        monkeypatch.setattr(events, "stats_to_dict", refuse)
        (sk,) = generate_sk_queries(
            db, WorkloadConfig(num_queries=1, num_keywords=1, seed=3)
        )
        (div,) = generate_diversified_queries(
            db, WorkloadConfig(num_queries=1, num_keywords=2, k=4, seed=3)
        )
        before = db.metrics.counters().get("query.count", 0)
        db.sk_search(sif, sk)
        db.diversified_search(sif, div)
        assert db.metrics.counters()["query.count"] == before + 2

    def test_guard_has_teeth(self, db, sif, monkeypatch):
        """The same patch trips as soon as one consumer is installed."""

        def refuse(stats):
            raise AssertionError("asked")

        monkeypatch.setattr(events, "stats_to_dict", refuse)
        db.enable_flight_recorder()
        with pytest.raises(AssertionError, match="asked"):
            db.engine.execute(_plans(db, sif, n=1)[0])


class _Tally:
    """A subscriber counting deliveries per batch sequence."""

    def __init__(self):
        self.lock = threading.Lock()
        self.seen = {}

    def __call__(self, event):
        with self.lock:
            self.seen[event.sequence] = self.seen.get(event.sequence, 0) + 1


class TestFanOut:
    def test_each_query_reaches_each_subscriber_exactly_once(self, db, sif):
        sink = InMemorySink()
        db.metrics.add_sink(sink)
        rollup = db.enable_rollup()
        log = db.enable_slow_query_log(latency_seconds=0.0)
        recorder = db.enable_flight_recorder()
        plans = _plans(db, sif, n=48)
        # More workers than cores and a short switch interval: a lost
        # update in the registry, a ring or the window shows as a count
        # that is not len(plans).
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            db.engine.execute_many(plans, workers=8)
        finally:
            sys.setswitchinterval(interval)
        expected = list(range(len(plans)))
        for records in (sink.of_type("query"), log.records(), recorder.records()):
            assert sorted(r["sequence"] for r in records) == expected
        assert db.metrics.counters()["query.count"] == len(plans)
        window = rollup.snapshot()
        assert window["counters"]["query.count"] == len(plans)
        assert window["histograms"][DEFAULT_STREAM]["count"] == len(plans)

    def test_removed_mid_batch_neither_raises_nor_starves_others(
        self, db, sif, tmp_path
    ):
        """The log is uninstalled (and its file closed) by the first
        query to finish, with the rest of a 4-worker batch in flight."""
        db.enable_slow_query_log(
            latency_seconds=0.0, path=tmp_path / "slow.jsonl"
        )
        recorder = db.enable_flight_recorder()
        tally = _Tally()
        fired = threading.Event()

        def pull_the_log(event):
            if not fired.is_set():
                fired.set()
                db.disable_slow_query_log()

        db._subscribers += (pull_the_log, tally)
        plans = _plans(db, sif, n=24)
        results = db.engine.execute_many(plans, workers=4)
        assert len(results) == len(plans) and db.slow_query_log is None
        assert tally.seen == {i: 1 for i in range(len(plans))}
        assert sorted(
            r["sequence"] for r in recorder.records()
        ) == list(range(len(plans)))

    def test_reinstalling_replaces_the_subscriber(self, db, sif):
        first = db.enable_flight_recorder()
        second = db.enable_flight_recorder()
        db.engine.execute(_plans(db, sif, n=1)[0])
        assert len(first) == 0 and len(second) == 1
        db.disable_flight_recorder()
        db.engine.execute(_plans(db, sif, n=1)[0])
        assert len(second) == 1 and len(db._subscribers) == 1


class TestFailedQuery:
    @pytest.fixture()
    def failing_plan(self, db, sif, monkeypatch):
        (query,) = generate_sk_queries(
            db, WorkloadConfig(num_queries=1, num_keywords=1, seed=3)
        )

        def explode(plan, ctx):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(db.engine, "_execute_sk", explode)
        return plan_sk(db, sif, query)

    def test_error_is_published_then_raised(self, db, failing_plan):
        seen = []
        db._subscribers += (seen.append,)
        with pytest.raises(RuntimeError, match="disk on fire") as raised:
            db.engine.execute(failing_plan, sequence=7)
        (event,) = seen
        assert event.error is raised.value
        assert event.result is None and event.stats is None
        assert event.sequence == 7
        counters = db.metrics.counters()
        assert counters["query.errors"] == 1
        assert counters["query.error#SIF/INE"] == 1
        assert "query.count" not in counters

    def test_error_leaves_logs_and_sinks_alone(self, db, failing_plan):
        sink = InMemorySink()
        db.metrics.add_sink(sink)
        log = db.enable_slow_query_log(latency_seconds=0.0)
        recorder = db.enable_flight_recorder()
        with pytest.raises(RuntimeError):
            db.engine.execute(failing_plan)
        assert sink.records == [] and len(log) == 0 and len(recorder) == 0
        assert log.summary()["observed"] == 0

    def test_errors_do_not_flatter_the_latency_window(self, db, failing_plan):
        """Ten 50 ms queries and thirty failures: the window p50 is
        50 ms and three quarters of the window failed.  (A failure used
        to be observed as a 0.0 s sample: p50 0.0.)"""
        rollup = db.enable_rollup()
        for _ in range(10):
            rollup.on_query(
                make_query_event(stats=QueryStats(wall_seconds=0.050))
            )
        for _ in range(30):
            with pytest.raises(RuntimeError):
                db.engine.execute(failing_plan)
        window = rollup.snapshot()
        counters = window["counters"]
        assert counters["query.count"] == 10 and counters["query.errors"] == 30
        assert window["histograms"][DEFAULT_STREAM]["count"] == 10
        assert counters["window.error_rate"] == pytest.approx(0.75)
        assert window["histograms"][DEFAULT_STREAM]["p50"] == pytest.approx(0.050)

    def test_window_of_failures_only_has_no_latency(self):
        rollup = SlidingWindowRollup()
        rollup.on_query(make_query_event(error=RuntimeError("x")))
        window = rollup.snapshot()
        assert window["counters"]["query.count"] == 0
        assert window["counters"]["query.errors"] == 1
        assert DEFAULT_STREAM not in window["histograms"]

    def test_window_and_registry_give_one_verdict(self, db, sif, failing_plan):
        """One spec judges the lifetime registry and the live window of
        the same batch alike: they count and time its queries the same."""
        rollup = db.enable_rollup()
        db.engine.execute_many(_plans(db, sif, n=12), workers=4)
        for _ in range(3):
            with pytest.raises(RuntimeError):
                db.engine.execute(failing_plan)
        spec = SLOSpec(name="one", rules=[
            SLORule(name="p95", kind="histogram_quantile",
                    metric=DEFAULT_STREAM, op="<=", threshold=60.0,
                    quantile=95),
            SLORule(name="errors", kind="counter_ratio",
                    metric="query.errors", op="<=", threshold=0.5,
                    denominator=["query.count", "query.errors"]),
        ])
        lifetime = spec.evaluate(db.metrics.snapshot())
        window = spec.evaluate(rollup.snapshot())
        assert [c["value"] for c in window] == [c["value"] for c in lifetime]
        assert lifetime[1]["value"] == pytest.approx(3 / 15)
        assert all(c["passed"] and not c["no_data"] for c in lifetime)


def _always_breached():
    return SLOSpec(name="tight", rules=[SLORule(
        name="p50", kind="histogram_quantile", metric=DEFAULT_STREAM,
        op="<=", threshold=0.0, quantile=50,
    )])


class TestLiveSLONotes:
    """Breach notes go to the log installed when the breach is seen —
    the monitor used to keep the log it saw at ``use_live_slo`` time."""

    def test_monitor_installed_before_the_log_still_notes(self, db, sif):
        monitor = db.use_live_slo(_always_breached())
        log = db.enable_slow_query_log(latency_seconds=3600.0)
        db.engine.execute(_plans(db, sif, n=1)[0])
        monitor.evaluate()
        assert monitor.verdict()["breach_windows"] == 1
        notes = [r for r in log.records() if r["type"] == "slo_breach"]
        assert len(notes) == 1 and notes[0]["spec"] == "tight"

    def test_monitor_outlives_the_log(self, db, sif, tmp_path):
        db.enable_slow_query_log(
            latency_seconds=3600.0, path=tmp_path / "slow.jsonl"
        )
        monitor = db.use_live_slo(_always_breached())
        db.engine.execute(_plans(db, sif, n=1)[0])
        db.disable_slow_query_log()
        monitor.evaluate()  # used to raise: sink ... is closed
        assert monitor.verdict()["breach_windows"] == 1
        assert db.metrics.counters()["slo.breaches"] == 1
