"""Workload execution and measurement.

Runs a batch of queries against one index and aggregates the metrics
the paper reports, each in its own column: average number of disk
accesses (physical page reads, ``avg_io``), average number of candidate
objects, and average query time.  Time is CPU wall time only — what
``QueryStats.wall_seconds`` means everywhere else (``/metrics``, the
slow log, the flight recorder, SLO rules); the disk-resident cost of a
query is its page count, never folded into the milliseconds.

Beyond the paper's averages, a report keeps every per-query wall time
(for p50/p95/p99 tail latency) and the per-stage time breakdown
(INE expansion, signature verification, pairwise Dijkstras,
greedy/core-pair maintenance) recorded by the query path, plus the
pairwise node-map hit/miss counts of each query's computer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..core.database import Database
from ..core.queries import DiversifiedSKQuery, QueryStats, SKQuery
from ..engine.plan import plan_diversified, plan_sk
from ..errors import QueryError
from ..index.base import ObjectIndex
from ..obs.metrics import percentile_of_sorted

__all__ = ["WorkloadReport", "run_sk_workload", "run_diversified_workload"]


@dataclass
class WorkloadReport:
    """Aggregated metrics over one workload run."""

    label: str
    num_queries: int = 0
    total_wall_seconds: float = 0.0
    total_physical_reads: int = 0
    total_candidates: int = 0
    total_objects_loaded: int = 0
    total_false_hit_objects: int = 0
    total_results: int = 0
    #: Per-query CPU wall times, for percentiles.
    latencies: List[float] = field(default_factory=list)
    #: Summed per-stage seconds across every query.
    stage_totals: Dict[str, float] = field(default_factory=dict)
    total_pairwise_dijkstras: int = 0
    total_distance_cache_hits: int = 0
    total_distance_cache_misses: int = 0
    total_buffer_evictions: int = 0
    #: Queries whose network expansion the COM §4.3 bound cut short —
    #: the pruning the diversified-search figures are really measuring.
    total_early_terminations: int = 0
    #: Thread-pool width the workload ran with (1 = serial).
    workers: int = 1
    #: End-to-end batch wall clock — with ``workers > 1`` this is what
    #: shrinks while the per-query times above stay put.
    wall_clock_seconds: float = 0.0

    def record(self, stats: QueryStats, num_results: int) -> None:
        """Absorb one query's stats into the aggregate."""
        self.num_queries += 1
        self.total_wall_seconds += stats.wall_seconds
        self.total_physical_reads += stats.physical_reads
        self.total_candidates += stats.candidates
        self.total_objects_loaded += stats.objects_loaded
        self.total_false_hit_objects += stats.false_hit_objects
        self.total_results += num_results
        self.latencies.append(stats.wall_seconds)
        for stage, seconds in stats.stage_seconds.items():
            self.stage_totals[stage] = self.stage_totals.get(stage, 0.0) + seconds
        self.total_pairwise_dijkstras += stats.pairwise_dijkstras
        self.total_distance_cache_hits += stats.distance_cache_hits
        self.total_distance_cache_misses += stats.distance_cache_misses
        self.total_buffer_evictions += stats.buffer_evictions
        if stats.expansion_terminated_early:
            self.total_early_terminations += 1

    @property
    def avg_wall_seconds(self) -> float:
        """Average CPU wall time per query; page reads are ``avg_io``."""
        return self.total_wall_seconds / self.num_queries if self.num_queries else 0.0

    @property
    def avg_io(self) -> float:
        return self.total_physical_reads / self.num_queries if self.num_queries else 0.0

    @property
    def avg_candidates(self) -> float:
        return self.total_candidates / self.num_queries if self.num_queries else 0.0

    @property
    def avg_false_hit_objects(self) -> float:
        return (
            self.total_false_hit_objects / self.num_queries if self.num_queries else 0.0
        )

    @property
    def avg_pairwise_dijkstras(self) -> float:
        return (
            self.total_pairwise_dijkstras / self.num_queries
            if self.num_queries else 0.0
        )

    @property
    def distance_cache_hit_rate(self) -> float:
        """Hit fraction of the queries' pairwise node-map lookups."""
        lookups = self.total_distance_cache_hits + self.total_distance_cache_misses
        return self.total_distance_cache_hits / lookups if lookups else 0.0

    @property
    def qps(self) -> float:
        """Batch throughput: queries per second of batch wall clock."""
        if self.wall_clock_seconds <= 0.0:
            return 0.0
        return self.num_queries / self.wall_clock_seconds

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0..100) of per-query CPU wall time."""
        if not self.latencies:
            return 0.0
        return percentile_of_sorted(sorted(self.latencies), p)

    def stage_breakdown_ms(self) -> Dict[str, float]:
        """Average per-query milliseconds per stage, largest first."""
        if not self.num_queries:
            return {}
        return {
            stage: round(total * 1e3 / self.num_queries, 3)
            for stage, total in sorted(
                self.stage_totals.items(), key=lambda kv: -kv[1]
            )
        }

    def row(self) -> dict:
        """A flat dict for tabular reporting.

        Includes the paper's averages, tail latency percentiles and one
        ``<stage>_ms`` column per recorded stage (average per query).
        """
        row = {
            "label": self.label,
            "queries": self.num_queries,
            "avg_time_ms": round(self.avg_wall_seconds * 1e3, 3),
            "p50_ms": round(self.percentile(50) * 1e3, 3),
            "p95_ms": round(self.percentile(95) * 1e3, 3),
            "p99_ms": round(self.percentile(99) * 1e3, 3),
            "avg_io": round(self.avg_io, 1),
            "avg_candidates": round(self.avg_candidates, 1),
            "avg_false_hit_objects": round(self.avg_false_hit_objects, 1),
        }
        if (
            self.total_pairwise_dijkstras
            or self.total_distance_cache_hits
            or self.total_distance_cache_misses
        ):
            row["avg_dijkstras"] = round(self.avg_pairwise_dijkstras, 1)
            row["cache_hit_pct"] = round(100.0 * self.distance_cache_hit_rate, 1)
        if self.total_early_terminations:
            row["early_term_pct"] = round(
                100.0 * self.total_early_terminations / self.num_queries, 1
            )
        if self.wall_clock_seconds > 0.0:
            row["workers"] = self.workers
            row["qps"] = round(self.qps, 1)
        for stage, ms in self.stage_breakdown_ms().items():
            row[f"{stage}_ms"] = ms
        return row

    def summary_record(self) -> dict:
        """A JSON-able workload summary for metric sinks."""
        return {
            "type": "workload",
            "label": self.label,
            "row": self.row(),
            "stage_totals_seconds": dict(self.stage_totals),
            "distance_cache": {
                "hits": self.total_distance_cache_hits,
                "misses": self.total_distance_cache_misses,
            },
            "buffer_evictions": self.total_buffer_evictions,
            "pairwise_dijkstras": self.total_pairwise_dijkstras,
            "early_terminations": self.total_early_terminations,
            "workers": self.workers,
            "wall_clock_seconds": self.wall_clock_seconds,
            "qps": self.qps,
        }


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise QueryError("workers must be >= 1")


def _run_plans(
    db: Database, plans, report: WorkloadReport, workers: int
) -> WorkloadReport:
    """Execute the plans (serially or pooled), fill and emit the report.

    One path for any worker count: ``execute_many`` stamps every plan
    with its batch index, so a recorded serial run replays under any
    ``--workers N``.
    """
    t0 = time.perf_counter()
    results = db.engine.execute_many(plans, workers=workers)
    report.wall_clock_seconds = time.perf_counter() - t0
    report.workers = workers
    for result in results:
        report.record(result.stats, len(result))
    db.metrics.emit(report.summary_record())
    return report


def run_sk_workload(
    db: Database,
    index: ObjectIndex,
    queries: Sequence[SKQuery],
    label: str = "",
    workers: int = 1,
) -> WorkloadReport:
    """Execute SK queries and aggregate the paper's metrics.

    ``workers > 1`` runs the batch on the query engine's thread pool;
    results and aggregates match a serial run (see
    :meth:`repro.engine.executor.QueryEngine.execute_many`), only the
    report's batch wall clock (``qps``) changes.
    """
    _check_workers(workers)
    report = WorkloadReport(label=label or index.name)
    plans = [plan_sk(db, index, q) for q in queries]
    return _run_plans(db, plans, report, workers)


def run_diversified_workload(
    db: Database,
    index: ObjectIndex,
    queries: Sequence[DiversifiedSKQuery],
    method: str,
    label: str = "",
    enable_pruning: bool = True,
    workers: int = 1,
) -> WorkloadReport:
    """Execute diversified queries via SEQ or COM and aggregate metrics.

    ``workers > 1`` runs the batch on the query engine's thread pool
    (see :func:`run_sk_workload`).
    """
    _check_workers(workers)
    report = WorkloadReport(label=label or f"{method.upper()}/{index.name}")
    plans = [
        plan_diversified(
            db, index, q, method=method, enable_pruning=enable_pruning
        )
        for q in queries
    ]
    return _run_plans(db, plans, report, workers)
