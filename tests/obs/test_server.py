"""Telemetry HTTP server tests: live scrapes against a real database."""

from __future__ import annotations

import json
import re
import urllib.error
import urllib.request

import pytest

from repro.engine.plan import plan_diversified
from repro.obs.export import VALID_METRIC_NAME
from repro.workloads import WorkloadConfig, generate_diversified_queries


@pytest.fixture()
def served(tiny_db, tiny_indexes):
    """The tiny database serving telemetry on an ephemeral port."""
    server = tiny_db.serve_telemetry(port=0)
    yield tiny_db, tiny_indexes["sif"], server
    tiny_db.stop_telemetry()


def get(server, route: str):
    with urllib.request.urlopen(server.url + route, timeout=10) as resp:
        return resp.status, resp.headers, resp.read().decode("utf-8")


def run_queries(db, index, n: int = 4):
    queries = generate_diversified_queries(
        db, WorkloadConfig(num_queries=n, k=3, seed=31)
    )
    for query in queries:
        db.engine.execute(plan_diversified(db, index, query, method="seq"))


class TestRoutes:
    def test_root_lists_routes(self, served):
        _, _, server = served
        status, _, body = get(server, "/")
        assert status == 200
        assert body.split() == [
            "/metrics", "/healthz", "/vars", "/slowlog", "/slo", "/recorder",
        ]

    def test_unknown_route_404(self, served):
        _, _, server = served
        with pytest.raises(urllib.error.HTTPError) as err:
            get(server, "/nope")
        assert err.value.code == 404

    def test_metrics_prometheus(self, served):
        db, index, server = served
        run_queries(db, index)
        status, headers, body = get(server, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "version=0.0.4" in headers["Content-Type"]
        # Every sample line uses a valid Prometheus metric name.
        for line in body.splitlines():
            if not line or line.startswith("#"):
                continue
            name = re.split(r"[{ ]", line, maxsplit=1)[0]
            assert VALID_METRIC_NAME.match(name), line
        assert "repro_query_count" in body
        # Plan labels are exported as labelled families, escaped.
        assert re.search(r'repro_query_plan\{plan="SIF/SEQ"\} \d+', body)

    def test_metrics_counters_monotonic_across_scrapes(self, served):
        db, index, server = served

        def query_count() -> int:
            _, _, body = get(server, "/metrics")
            match = re.search(r"^repro_query_count (\d+)$", body, re.M)
            assert match, "repro_query_count missing"
            return int(match.group(1))

        before = query_count()
        run_queries(db, index, n=3)
        middle = query_count()
        run_queries(db, index, n=2)
        after = query_count()
        assert before <= middle <= after
        assert after >= before + 5

    def test_healthz(self, served):
        db, index, server = served
        run_queries(db, index, n=1)
        status, headers, body = get(server, "/healthz")
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["data_version"] == db.data_version
        assert health["uptime_seconds"] > 0
        assert health["queries"] >= 1
        assert "epoch" in health and "errors" in health

    def test_vars_snapshot(self, served):
        db, index, server = served
        run_queries(db, index, n=2)
        _, _, body = get(server, "/vars")
        doc = json.loads(body)
        assert doc["counters"]["query.count"] >= 2
        assert "gauges" in doc
        assert doc["data_version"] == db.data_version
        assert "window" in doc  # rollup enabled by serve_telemetry

    def test_slowlog_route(self, served):
        db, index, server = served
        db.enable_slow_query_log(latency_seconds=0.0)
        try:
            run_queries(db, index, n=3)
            _, _, body = get(server, "/slowlog?limit=2")
            doc = json.loads(body)
            assert len(doc["records"]) == 2
            # Trace payloads are stripped unless ?trace=1.
            assert all("trace" not in r for r in doc["records"])
            # A limit that is not a positive integer is refused, not
            # read as "everything" (0) or "all but the first N" (-N).
            for scrape in ("/slowlog?limit=0", "/slowlog?limit=-3",
                           "/slowlog?limit=x", "/recorder?limit=0"):
                with pytest.raises(urllib.error.HTTPError) as err:
                    get(server, scrape)
                assert err.value.code == 400
                assert err.value.read() == (
                    b"limit must be a positive integer\n"
                )
        finally:
            db.disable_slow_query_log()

    def test_scrape_self_metrics(self, served):
        _, _, server = served
        get(server, "/healthz")
        _, _, body = get(server, "/vars")
        doc = json.loads(body)
        assert doc["counters"]["telemetry.scrapes"] >= 2
        assert doc["counters"]["telemetry.scrape#healthz"] >= 1


class TestLifecycle:
    def test_serve_telemetry_idempotent(self, tiny_db):
        server = tiny_db.serve_telemetry(port=0)
        try:
            again = tiny_db.serve_telemetry(port=0)
            assert again is server
        finally:
            tiny_db.stop_telemetry()
        assert tiny_db.telemetry_server is None
        assert not server.running

    def test_stopped_server_refuses_connections(self, tiny_db):
        server = tiny_db.serve_telemetry(port=0)
        url = server.url
        tiny_db.stop_telemetry()
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(url + "/healthz", timeout=2)
