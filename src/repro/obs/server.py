"""Live observability endpoint: a stdlib HTTP server over one database.

PR 1–6 observability is end-of-run and file-based: ``--prom`` writes a
final Prometheus exposition, ``--metrics`` a JSON-lines stream you
read afterwards.  A serving process (the ROADMAP's shard-per-process
item) needs *scrape targets*: something Prometheus polls every few
seconds while traffic flows.  :class:`TelemetryServer` is that target
— a ``ThreadingHTTPServer`` on a daemon thread, reading the same
registry/gauges/slowlog/rollup state the rest of :mod:`repro.obs`
maintains, with no third-party dependencies.

``/metrics`` is the Prometheus text exposition; ``GET /`` lists every
route, and each route's handler below says what it answers.

Every hit counts ``telemetry.scrapes`` plus a per-route
``telemetry.scrape#<route>`` labelled counter, so the scrape traffic
itself is visible in ``/metrics``.

Start it in-process with :meth:`Database.serve_telemetry(port)
<repro.core.database.Database.serve_telemetry>` or from any workload
CLI with ``--telemetry-port``; ``port=0`` binds an ephemeral port
(read it back from ``server.port``).
"""

from __future__ import annotations

import json
import threading
import time
from functools import partial
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from .export import database_gauges, prometheus_text

__all__ = ["TelemetryServer", "PROMETHEUS_CONTENT_TYPE"]

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
_JSON = "application/json; charset=utf-8"
_TEXT = "text/plain; charset=utf-8"


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the owning :class:`TelemetryServer`."""

    server_version = "repro-telemetry/1.0"
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 — stdlib signature
        pass  # scrapes every few seconds must not spam stderr

    def do_GET(self) -> None:  # noqa: N802 — stdlib casing
        telemetry: "TelemetryServer" = self.server.telemetry  # type: ignore[attr-defined]
        parsed = urlparse(self.path)
        try:
            status, content_type, body = telemetry.handle(
                parsed.path, parse_qs(parsed.query)
            )
        except Exception as exc:  # noqa: BLE001 — a scrape must answer
            status, content_type = 500, _TEXT
            body = f"telemetry handler error: {exc!r}\n".encode()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


class TelemetryServer:
    """The live scrape endpoint of one database (see module docstring)."""

    def __init__(
        self,
        db,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.db = db
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.telemetry = self  # type: ignore[attr-defined]
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: Optional[threading.Thread] = None
        self._started_monotonic = time.monotonic()
        #: Every route but ``/``, which lists these in this order.
        self._routes = {
            "/metrics": self._metrics,
            "/healthz": self._healthz,
            "/vars": self._vars,
            "/slowlog": partial(self._ring, "slow_query_log", "trace"),
            "/slo": self._slo,
            "/recorder": partial(self._ring, "flight_recorder", "stats"),
        }

    # -- lifecycle -----------------------------------------------------
    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "TelemetryServer":
        if self.running:
            return self
        self._started_monotonic = time.monotonic()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"repro-telemetry-{self.port}",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop serving and release the socket; idempotent."""
        thread, self._thread = self._thread, None
        if thread is not None:
            self._httpd.shutdown()
            thread.join(timeout=5.0)
        self._httpd.server_close()

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- routing -------------------------------------------------------
    def handle(
        self, path: str, query: Dict[str, Any]
    ) -> Tuple[int, str, bytes]:
        """Dispatch one request; returns (status, content type, body)."""
        route = path.rstrip("/") or "/"
        handler = self._index if route == "/" else self._routes.get(route)
        if handler is None:
            return 404, _TEXT, f"no such route {path!r}\n".encode()
        self.db.metrics.inc("telemetry.scrapes")
        self.db.metrics.inc(f"telemetry.scrape#{route.lstrip('/') or 'index'}")
        return handler(query)

    def _json(self, payload: Any, status: int = 200) -> Tuple[int, str, bytes]:
        body = json.dumps(payload, indent=1, default=str).encode() + b"\n"
        return status, _JSON, body

    # -- routes --------------------------------------------------------
    def _index(self, query) -> Tuple[int, str, bytes]:
        return 200, _TEXT, "".join(f"{r}\n" for r in self._routes).encode()

    def _metrics(self, query) -> Tuple[int, str, bytes]:
        """Prometheus text: lifetime counters, histogram summaries and
        point-in-time gauges.  The registry is read under its lock, so
        scraping a busy database never sees a half-updated histogram."""
        text = prometheus_text(
            self.db.metrics, gauges=database_gauges(self.db)
        )
        return 200, PROMETHEUS_CONTENT_TYPE, text.encode()

    def _healthz(self, query) -> Tuple[int, str, bytes]:
        """Liveness JSON: status, ``data_version``, uptime, lifetime
        query / error / update counts."""
        counters = self.db.metrics.counters()
        return self._json({
            "status": "ok",
            "data_version": self.db.data_version,
            "uptime_seconds": round(self.db.uptime_seconds(), 3),
            "queries": counters.get("query.count", 0),
            "errors": counters.get("query.errors", 0),
            "updates": len(self.db.update_journal),
        })

    def _vars(self, query) -> Tuple[int, str, bytes]:
        """The full JSON snapshot: registry counters and histogram
        summaries, database gauges, the current sliding-window
        snapshot (the registry's shape) and the live SLO verdict when
        installed.

        The window is read before the registry: a query reaches the
        registry before the rollup, so every query the window counts is
        in ``query.count`` (or ``query.errors``) too."""
        rollup = self.db.rollup
        window = rollup.snapshot() if rollup is not None else None
        payload = self.db.metrics.snapshot()
        payload["gauges"] = database_gauges(self.db)
        payload["data_version"] = self.db.data_version
        payload["uptime_seconds"] = round(self.db.uptime_seconds(), 3)
        payload["window"] = window
        monitor = self.db.live_slo
        payload["slo"] = monitor.verdict() if monitor is not None else None
        return self._json(payload)

    def _ring(self, attr: str, bulky: str, query) -> Tuple[int, str, bytes]:
        """``/slowlog`` and ``/recorder``: the ring ``db.<attr>`` holds,
        as JSON, newest last (``?limit=N`` keeps the last N).

        ``bulky`` is the one key that dwarfs the rest of a record (a
        slow record's span tree, a flight record's stats snapshot); it
        is stripped unless the scrape asks for it (``?trace=1`` /
        ``?stats=1``).
        """
        limit = None
        if "limit" in query:
            try:
                limit = int(query["limit"][0])
            except ValueError:
                limit = 0
            if limit <= 0:
                return 400, _TEXT, b"limit must be a positive integer\n"
        ring = getattr(self.db, attr)
        if ring is None:
            return self._json({"installed": False, "records": []})
        records = ring.records()[-limit:] if limit else ring.records()
        if query.get(bulky, ["0"])[0] in ("0", "", "false"):
            records = [
                {key: value for key, value in record.items() if key != bulky}
                for record in records
            ]
        return self._json({
            "installed": True,
            "summary": ring.summary(),
            "records": records,
        })

    def _slo(self, query) -> Tuple[int, str, bytes]:
        """Evaluates the live SLO monitor against the current window
        and returns its verdict (404 when none is installed)."""
        monitor = self.db.live_slo
        if monitor is None:
            return 404, _TEXT, b"no live SLO monitor installed\n"
        monitor.evaluate()
        return self._json(monitor.verdict())
