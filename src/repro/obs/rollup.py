"""Sliding-window metric aggregation and live SLO evaluation.

Everything else in :mod:`repro.obs` is end-of-run: the registry's
histograms cover the whole process lifetime, the Prometheus export is
a point-in-time dump of those lifetime aggregates, and ``--slo`` gates
run once against the final snapshot.  A *serving* system is judged on
what the last few seconds looked like — QPS right now, p99 over the
last 10 seconds, the error rate since the last deploy tick — so this
module adds the time dimension:

* :class:`SlidingWindowRollup` — a thread-safe ring buffer of
  per-second buckets.  Each finished query is recorded once (latency,
  error flag); other named latency *streams* take samples without
  counting a query.  Snapshots aggregate the buckets that fall inside
  the requested window into QPS, p50/p95/p99 per stream and error
  rate.  Memory is bounded: the ring has a fixed number of buckets and
  each bucket keeps one stride-subsampled
  :class:`~repro.obs.metrics.Histogram` per stream.

* :class:`WindowSnapshot` — the aggregate over one window, with
  :meth:`WindowSnapshot.to_slo_snapshot` shaping it like a registry
  snapshot so the *same* declarative :class:`~repro.obs.slo.SLOSpec`
  rules that gate end-of-run reports evaluate against a live window.
  Derived window values (``window.qps``, ``window.error_rate``) are
  exposed as counters so plain ``counter`` rules can bound them.

* :class:`LiveSLOMonitor` — evaluates an SLO spec against the current
  window whenever asked (the telemetry server does so per scrape, the
  load driver once per tick).  Windows that fail any rule are *breach
  events*: counted into the metrics registry (``slo.breaches``, plus a
  per-rule ``slo.breach#<rule>`` labelled counter) and noted into the
  record stream of whatever slow-query log is installed at that
  moment, so a breach shows up in the same ``repro slowlog`` file as
  the queries that caused it.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Any, Dict, List, Optional

from .metrics import Histogram, percentile_of_sorted
from .slo import SLOCheck, SLOSpec

__all__ = [
    "SlidingWindowRollup",
    "WindowSnapshot",
    "LiveSLOMonitor",
]

#: Default latency stream queries record into (mirrors the registry's
#: lifetime histogram of the same name).
DEFAULT_STREAM = "query.wall_seconds"


class _Bucket:
    """One ring slot: everything recorded during one bucket interval."""

    __slots__ = ("index", "count", "errors", "streams")

    def __init__(self, index: int) -> None:
        self.reset(index)

    def reset(self, index: int) -> None:
        self.index = index
        self.count = 0
        self.errors = 0
        self.streams: Dict[str, Histogram] = {}


class WindowSnapshot:
    """Aggregates over one sliding window, JSON-able."""

    __slots__ = (
        "window_seconds", "covered_seconds", "count", "errors", "qps",
        "error_rate", "streams", "at",
    )

    def __init__(
        self,
        window_seconds: float,
        covered_seconds: float,
        count: int,
        errors: int,
        streams: Dict[str, Dict[str, float]],
        at: float,
    ) -> None:
        self.window_seconds = window_seconds
        #: Seconds of history the window actually covers — shorter than
        #: ``window_seconds`` right after start-up, so QPS is never
        #: diluted by time the rollup did not exist.
        self.covered_seconds = covered_seconds
        self.count = count
        self.errors = errors
        self.qps = count / covered_seconds if covered_seconds > 0 else 0.0
        self.error_rate = errors / count if count else 0.0
        #: Per-stream latency summaries (count/sum/mean/max/p50/p95/p99).
        self.streams = streams
        self.at = at

    def stream(self, name: str = DEFAULT_STREAM) -> Dict[str, float]:
        return self.streams.get(name, {"count": 0})

    def percentile(self, p: float, stream: str = DEFAULT_STREAM) -> float:
        summary = self.streams.get(stream)
        if not summary or not summary.get("count"):
            return math.nan
        return summary[f"p{int(p)}"]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "window_seconds": self.window_seconds,
            "covered_seconds": self.covered_seconds,
            "count": self.count,
            "errors": self.errors,
            "qps": self.qps,
            "error_rate": self.error_rate,
            "streams": {name: dict(s) for name, s in self.streams.items()},
        }

    def to_slo_snapshot(self) -> Dict[str, Any]:
        """Shape this window like a registry snapshot for SLO rules.

        Latency streams become ``histograms`` entries; raw window
        totals and the derived rates become ``counters``, so every
        :class:`~repro.obs.slo.SLORule` kind works unchanged —
        ``histogram_quantile`` on ``query.wall_seconds`` p99,
        ``counter`` on ``window.qps`` or ``window.error_rate``,
        ``counter_ratio`` of ``window.errors`` over ``window.count``.
        """
        counters: Dict[str, float] = {
            "window.count": self.count,
            "window.errors": self.errors,
            "window.qps": self.qps,
            "window.error_rate": self.error_rate,
        }
        histograms = {
            name: dict(summary)
            for name, summary in self.streams.items()
            if summary.get("count")
        }
        return {"counters": counters, "histograms": histograms}


class SlidingWindowRollup:
    """Thread-safe ring buffer of per-interval query aggregates.

    ``window_seconds`` is the default reporting window;
    ``bucket_seconds`` the ring granularity.  The ring holds
    ``ceil(window / bucket) + 1`` buckets so a full window is always
    available while the newest bucket is still filling.  Recording is
    O(1) under one lock; a snapshot walks at most the ring's buckets.
    """

    def __init__(
        self,
        window_seconds: float = 10.0,
        bucket_seconds: float = 1.0,
        max_samples_per_bucket: int = 512,
        clock=time.monotonic,
    ) -> None:
        if window_seconds <= 0 or bucket_seconds <= 0:
            raise ValueError("window and bucket seconds must be positive")
        if bucket_seconds > window_seconds:
            raise ValueError("bucket_seconds cannot exceed window_seconds")
        self.window_seconds = float(window_seconds)
        self.bucket_seconds = float(bucket_seconds)
        self._max_samples = max_samples_per_bucket
        self._clock = clock
        self._num_buckets = int(math.ceil(window_seconds / bucket_seconds)) + 1
        self._buckets = [_Bucket(-1) for _ in range(self._num_buckets)]
        self._lock = threading.Lock()
        self._start = clock()

    # -- recording -----------------------------------------------------
    def _bucket_for(self, now: float) -> _Bucket:
        index = int((now - self._start) / self.bucket_seconds)
        bucket = self._buckets[index % self._num_buckets]
        if bucket.index != index:
            bucket.reset(index)
        return bucket

    def record(
        self,
        latency_seconds: Optional[float],
        error: bool = False,
        now: Optional[float] = None,
    ) -> None:
        """Count one finished query into the current bucket and add its
        latency to :data:`DEFAULT_STREAM`.

        ``latency_seconds=None`` counts the query (and its error) but
        observes no sample: a query that failed before it had a
        latency must not pull the window's percentiles towards zero.
        """
        if now is None:
            now = self._clock()
        with self._lock:
            bucket = self._bucket_for(now)
            bucket.count += 1
            if error:
                bucket.errors += 1
            if latency_seconds is not None:
                self._sample(bucket, DEFAULT_STREAM, latency_seconds)

    def observe(
        self, latency_seconds: float, stream: str,
        now: Optional[float] = None,
    ) -> None:
        """Add one latency sample to ``stream``; counts no query.

        For a second view of queries :meth:`record` already counted —
        the load driver's queue-inclusive latency — so QPS and error
        rate see each query once.
        """
        if now is None:
            now = self._clock()
        with self._lock:
            self._sample(self._bucket_for(now), stream, latency_seconds)

    def _sample(self, bucket: _Bucket, stream: str, seconds: float) -> None:
        hist = bucket.streams.get(stream)
        if hist is None:
            hist = bucket.streams[stream] = Histogram(
                stream, max_samples=self._max_samples
            )
        hist.observe(seconds)

    def on_query(self, event) -> None:
        """Subscriber form of :meth:`record`, for the engine's per-query
        events (:class:`~repro.obs.events.QueryEvent`)."""
        if event.error is not None:
            self.record(None, error=True)
        else:
            self.record(event.stats.wall_seconds)

    # -- reporting -----------------------------------------------------
    def snapshot(
        self,
        window_seconds: Optional[float] = None,
        now: Optional[float] = None,
    ) -> WindowSnapshot:
        """Aggregate every bucket inside the window ending *now*."""
        if now is None:
            now = self._clock()
        window = (
            self.window_seconds if window_seconds is None
            else float(window_seconds)
        )
        newest = int((now - self._start) / self.bucket_seconds)
        span = min(
            int(math.ceil(window / self.bucket_seconds)),
            self._num_buckets,
        )
        oldest = newest - span + 1
        count = errors = 0
        raw_streams: Dict[str, List[Histogram]] = {}
        with self._lock:
            for bucket in self._buckets:
                if oldest <= bucket.index <= newest:
                    count += bucket.count
                    errors += bucket.errors
                    for name, hist in bucket.streams.items():
                        raw_streams.setdefault(name, []).append(hist)
            streams: Dict[str, Dict[str, float]] = {}
            for name, parts in raw_streams.items():
                # A bucket's histogram exists only once it has a sample.
                samples = sorted(s for hist in parts for s in hist.samples())
                n = sum(hist.count for hist in parts)
                total = sum(hist.total for hist in parts)
                streams[name] = {
                    "count": n,
                    "sum": total,
                    "mean": total / n,
                    "max": max(hist.max for hist in parts),
                    **{
                        f"p{p}": percentile_of_sorted(samples, p)
                        for p in (50, 95, 99)
                    },
                }
        # QPS denominator: only history that exists.  The newest bucket
        # is partially filled, so cover from the oldest *requested*
        # bucket boundary (clamped to start-up) through now.
        window_floor = max(self._start, self._start + oldest * self.bucket_seconds)
        covered = max(now - window_floor, self.bucket_seconds * 1e-6)
        return WindowSnapshot(
            window_seconds=window,
            covered_seconds=min(covered, window),
            count=count,
            errors=errors,
            streams=streams,
            at=now,
        )


class LiveSLOMonitor:
    """Continuously judge a live window against a declarative SLO spec.

    ``evaluate()`` snapshots the rollup's current window, runs every
    rule of ``spec`` against it, and — when any rule fails — records
    one *breach event*: ``slo.breaches`` (plus per-rule
    ``slo.breach#<rule>`` labelled counters) in the metrics registry,
    and a ``{"type": "slo_breach", ...}`` note in the slow-query log's
    stream.  ``slowlog`` is a zero-argument callable returning the log
    installed *now* (or ``None``), asked at every breach: a monitor
    may be installed before the log it notes into and may outlive it.
    Callers decide the cadence: the telemetry server evaluates per
    ``/slo`` scrape, the load driver once per reporting tick.
    """

    def __init__(
        self,
        spec: SLOSpec,
        rollup: SlidingWindowRollup,
        metrics=None,
        slowlog=None,
    ) -> None:
        self.spec = spec
        self.rollup = rollup
        self.metrics = metrics
        self.slowlog = slowlog
        self._lock = threading.Lock()
        #: Lifetime evaluation / breach-window counts.
        self.evaluations = 0
        self.breaches = 0
        self._last_checks: List[SLOCheck] = []

    def evaluate(self, now: Optional[float] = None) -> List[SLOCheck]:
        window = self.rollup.snapshot(now=now)
        checks = self.spec.evaluate(window.to_slo_snapshot())
        failed = [c for c in checks if not c.passed]
        with self._lock:
            self.evaluations += 1
            if failed:
                self.breaches += 1
            self._last_checks = checks
        if failed:
            record = {
                "type": "slo_breach",
                "spec": self.spec.name,
                "window": window.to_dict(),
                "failed": [check.to_dict() for check in failed],
            }
            if self.metrics is not None:
                self.metrics.inc("slo.breaches")
                for check in failed:
                    self.metrics.inc(f"slo.breach#{check.rule.name}")
                self.metrics.emit(record)
            log = self.slowlog() if self.slowlog is not None else None
            if log is not None:
                log.note(record)
        return checks

    def verdict(self) -> Dict[str, Any]:
        """JSON-able state of the most recent evaluation."""
        with self._lock:
            checks = list(self._last_checks)
            return {
                "spec": self.spec.name,
                "evaluations": self.evaluations,
                "breach_windows": self.breaches,
                "passed": all(c.passed for c in checks),
                "checks": [c.to_dict() for c in checks],
            }
