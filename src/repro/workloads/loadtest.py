"""Sustained-QPS load driver (open-loop, coordinated-omission-safe).

The workload runner (:mod:`repro.workloads.runner`) is *closed-loop*:
it issues the next query when the previous one finishes, so a slow
system is simply offered less load and its latency numbers look
flattering — the classic coordinated-omission trap.  This driver is
**open-loop**: queries are dispatched on a fixed schedule derived only
from the offered rate (query ``i`` is *due* at ``t0 + i/qps``), and
every latency is measured **from the intended send time**, not from
when a worker finally picked the query up.  A system that falls behind
therefore shows the queueing delay its users would actually feel, and
``achieved_qps`` visibly sags below ``offered_qps``.

The driver composes with the live telemetry plane:

* every observed latency feeds the database's sliding-window rollup
  (stream ``loadtest.latency_seconds``) next to the engine's own
  service-time stream, so ``/vars`` and ``/slo`` show the run live.
  The engine's per-query event counts the query (and its error) in
  the window; the observed stream adds a sample only;
* when an SLO spec is given, a :class:`~repro.obs.rollup.LiveSLOMonitor`
  is evaluated once per rollup bucket during the run — breach windows
  are counted and recorded as they happen — and the **final live
  window's verdict gates the run** (CLI exit code).

``repro loadtest`` is the CLI entry; pair it with
``--telemetry-port`` to scrape ``/metrics`` while it runs.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..core.database import Database
from ..core.queries import DiversifiedSKQuery
from ..engine.plan import plan_diversified, plan_sk
from ..errors import QueryError
from ..index.base import ObjectIndex
from ..obs.metrics import percentile_of_sorted
from ..obs.rollup import LiveSLOMonitor
from ..obs.slo import SLOSpec

__all__ = ["LoadTestConfig", "LoadTestReport", "run_loadtest"]

#: Rollup stream the driver records observed (queue-inclusive)
#: latencies into; the engine's ``query.wall_seconds`` stream keeps
#: measuring pure service time alongside.
OBSERVED_STREAM = "loadtest.latency_seconds"


@dataclass(frozen=True)
class LoadTestConfig:
    """Knobs of one load-test run."""

    qps: float = 20.0
    duration_seconds: float = 10.0
    workers: int = 4
    method: str = "seq"

    def __post_init__(self) -> None:
        if self.qps <= 0:
            raise QueryError("qps must be positive")
        if self.duration_seconds <= 0:
            raise QueryError("duration_seconds must be positive")
        if self.workers < 1:
            raise QueryError("workers must be >= 1")
        if self.method not in ("seq", "com", "sk"):
            raise QueryError("method must be one of ('seq', 'com', 'sk')")

    @property
    def total_queries(self) -> int:
        return max(1, int(round(self.qps * self.duration_seconds)))


@dataclass
class LoadTestReport:
    """Aggregates over one open-loop run."""

    label: str
    offered_qps: float
    workers: int
    sent: int = 0
    completed: int = 0
    errors: int = 0
    #: Observed latencies: completion minus *intended* send time.
    latencies: List[float] = field(default_factory=list)
    #: Service latencies: completion minus actual execution start.
    service_latencies: List[float] = field(default_factory=list)
    #: Worst dispatch lag (actual start minus intended start) — how far
    #: behind schedule the driver itself fell.
    max_dispatch_lag: float = 0.0
    wall_clock_seconds: float = 0.0
    #: Live-SLO outcome (``LiveSLOMonitor.verdict()``), when gated.
    slo: Optional[Dict[str, Any]] = None

    @property
    def achieved_qps(self) -> float:
        if self.wall_clock_seconds <= 0:
            return 0.0
        return self.completed / self.wall_clock_seconds

    @property
    def slo_passed(self) -> bool:
        """The gate: the final live window's verdict (True when ungated)."""
        return self.slo is None or bool(self.slo.get("passed"))

    def percentile(self, p: float, service: bool = False) -> float:
        samples = self.service_latencies if service else self.latencies
        if not samples:
            return 0.0
        return percentile_of_sorted(sorted(samples), p)

    def row(self) -> Dict[str, Any]:
        row: Dict[str, Any] = {
            "label": self.label,
            "offered_qps": round(self.offered_qps, 2),
            "achieved_qps": round(self.achieved_qps, 2),
            "sent": self.sent,
            "completed": self.completed,
            "errors": self.errors,
            "p50_ms": round(self.percentile(50) * 1e3, 3),
            "p95_ms": round(self.percentile(95) * 1e3, 3),
            "p99_ms": round(self.percentile(99) * 1e3, 3),
            "service_p95_ms": round(
                self.percentile(95, service=True) * 1e3, 3
            ),
            "max_lag_ms": round(self.max_dispatch_lag * 1e3, 3),
            "workers": self.workers,
        }
        if self.slo is not None:
            row["slo"] = "PASS" if self.slo_passed else "FAIL"
            row["breach_windows"] = self.slo.get("breach_windows", 0)
        return row

    def summary_record(self) -> Dict[str, Any]:
        return {
            "type": "loadtest",
            "label": self.label,
            "row": self.row(),
            "wall_clock_seconds": self.wall_clock_seconds,
            "slo": self.slo,
        }


def run_loadtest(
    db: Database,
    index: ObjectIndex,
    queries: Sequence,
    config: LoadTestConfig,
    slo_spec: Optional[SLOSpec] = None,
    label: str = "",
    enable_pruning: bool = True,
) -> LoadTestReport:
    """Drive ``index`` at a constant offered rate; judge it live.

    ``queries`` are cycled to fill ``config.total_queries`` sends.
    Diversified queries route through ``config.method`` (``seq`` /
    ``com``); plain SK queries are planned as range queries.  The
    database's rollup is enabled on demand; when ``slo_spec`` is given
    a live monitor is installed for the run (and uninstalled after),
    evaluated once per rollup bucket, with the final window's verdict
    stored in ``report.slo``.
    """
    if not queries:
        raise QueryError("cannot load-test an empty query list")
    plans = []
    for i in range(config.total_queries):
        query = queries[i % len(queries)]
        if isinstance(query, DiversifiedSKQuery) and config.method != "sk":
            plans.append(plan_diversified(
                db, index, query, method=config.method,
                enable_pruning=enable_pruning,
            ))
        else:
            plans.append(plan_sk(db, index, query))
    report = LoadTestReport(
        label=label or f"{plans[0].label}@{config.qps:g}qps",
        offered_qps=config.qps,
        workers=config.workers,
    )
    rollup = db.enable_rollup()
    monitor: Optional[LiveSLOMonitor] = None
    if slo_spec is not None:
        monitor = db.use_live_slo(slo_spec)

    clock = time.monotonic
    lock = threading.Lock()
    interval = 1.0 / config.qps

    def _run_one(plan, intended: float, sequence: int) -> None:
        start = clock()
        error = False
        try:
            # The send index is the query's identity: a flight record
            # carries it rather than a shared counter consumed in
            # dispatch order, so a recorded run replays identically
            # under any --workers N.
            db.engine.execute(plan, sequence=sequence)
        except Exception:  # noqa: BLE001 — the driver must keep pace
            error = True
        end = clock()
        latency = end - intended
        rollup.observe(latency, OBSERVED_STREAM, now=end)
        with lock:
            report.completed += 1
            if error:
                report.errors += 1
            report.latencies.append(latency)
            report.service_latencies.append(end - start)
            lag = start - intended
            if lag > report.max_dispatch_lag:
                report.max_dispatch_lag = lag

    t0 = clock()
    next_tick = t0 + rollup.bucket_seconds
    with ThreadPoolExecutor(
        max_workers=config.workers, thread_name_prefix="repro-load"
    ) as pool:
        for i, plan in enumerate(plans):
            intended = t0 + i * interval
            now = clock()
            # Open loop: never skip a send.  When behind schedule the
            # query is submitted immediately and its latency still
            # counts from ``intended`` — the queueing delay is the
            # measurement, not an omission.
            if intended > now:
                time.sleep(intended - now)
            pool.submit(_run_one, plan, intended, i)
            report.sent += 1
            if monitor is not None and clock() >= next_tick:
                monitor.evaluate()
                next_tick += rollup.bucket_seconds
        # Context exit drains the queue (shutdown(wait=True)).
    report.wall_clock_seconds = clock() - t0
    if monitor is not None:
        # The gating verdict: the live window as the run ends.
        monitor.evaluate()
        report.slo = monitor.verdict()
        db.live_slo = None
    db.metrics.emit(report.summary_record())
    return report
