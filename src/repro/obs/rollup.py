"""Sliding-window metric aggregation.

Everything else in :mod:`repro.obs` is end-of-run: the registry's
histograms cover the whole process lifetime and the Prometheus export
is a point-in-time dump of those lifetime aggregates.  A *serving*
system is judged on what the last few seconds looked like — QPS right
now, p99 over the last 10 seconds, the error rate since the last
deploy tick — so :class:`SlidingWindowRollup` adds the time dimension:
a thread-safe ring buffer of per-second buckets.  Each finished query
is recorded once (latency, error flag); other named latency *streams*
take samples without counting a query.  Memory is bounded: the ring
has a fixed number of buckets and each bucket keeps one
stride-subsampled :class:`~repro.obs.metrics.Histogram` per stream.

A window's snapshot has the shape of
:meth:`MetricsRegistry.snapshot() <repro.obs.metrics.MetricsRegistry.snapshot>`
— ``query.count`` / ``query.errors`` counters as the registry counts
them, the window's own ``window.*`` figures beside them, one histogram
summary per stream — so the one SLO engine
(:class:`~repro.obs.slo.SLOMonitor`) judges a live window and a
finished run alike.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Any, Dict, List, Optional

from .metrics import Histogram

__all__ = ["SlidingWindowRollup"]

#: Default latency stream queries record into (mirrors the registry's
#: lifetime histogram of the same name).
DEFAULT_STREAM = "query.wall_seconds"

#: The reporting window, the ring's granularity, and the samples one
#: bucket keeps per stream.
WINDOW_SECONDS = 10.0
BUCKET_SECONDS = 1.0
MAX_SAMPLES_PER_BUCKET = 512


class _Bucket:
    """One ring slot: everything recorded during one bucket interval;
    ``count`` and ``errors`` split finished queries as the registry's
    ``query.count`` and ``query.errors`` do."""

    __slots__ = ("index", "count", "errors", "streams")

    def __init__(self, index: int) -> None:
        self.reset(index)

    def reset(self, index: int) -> None:
        self.index = index
        self.count = 0
        self.errors = 0
        self.streams: Dict[str, Histogram] = {}


class SlidingWindowRollup:
    """Thread-safe ring buffer of per-interval query aggregates.

    The ring holds ``ceil(WINDOW_SECONDS / BUCKET_SECONDS) + 1``
    buckets so a full window is always available while the newest
    bucket is still filling.  Recording is O(1) under one lock; a
    snapshot walks at most the ring's buckets.  ``clock`` is the time
    source (a test's fake).
    """

    def __init__(self, clock=time.monotonic) -> None:
        self.window_seconds = WINDOW_SECONDS
        self.bucket_seconds = BUCKET_SECONDS
        self._clock = clock
        self._num_buckets = (
            int(math.ceil(self.window_seconds / self.bucket_seconds)) + 1
        )
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
        self, latency_seconds: Optional[float], error: bool = False
    ) -> None:
        """Count one finished query into the current bucket and add its
        latency to :data:`DEFAULT_STREAM`.

        ``latency_seconds=None`` counts the query (and its error) but
        observes no sample: a query that failed before it had a
        latency must not pull the window's percentiles towards zero.
        """
        with self._lock:
            bucket = self._bucket_for(self._clock())
            if error:
                bucket.errors += 1
            else:
                bucket.count += 1
            if latency_seconds is not None:
                self._sample(bucket, DEFAULT_STREAM, latency_seconds)

    def observe(self, latency_seconds: float, stream: str) -> None:
        """Add one latency sample to ``stream``; counts no query.

        For a second view of queries :meth:`record` already counted —
        the load driver's queue-inclusive latency — so QPS and error
        rate see each query once.
        """
        with self._lock:
            self._sample(
                self._bucket_for(self._clock()), stream, latency_seconds
            )

    def _sample(self, bucket: _Bucket, stream: str, seconds: float) -> None:
        hist = bucket.streams.get(stream)
        if hist is None:
            hist = bucket.streams[stream] = Histogram(
                stream, max_samples=MAX_SAMPLES_PER_BUCKET
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
    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Aggregate every bucket inside the window ending *now*, in the
        registry's snapshot shape.

        ``window.qps`` counts every finished query, failed ones too, and
        ``window.error_rate`` is failures over all finished queries.
        """
        now = self._clock()
        window = self.window_seconds
        newest = int((now - self._start) / self.bucket_seconds)
        span = min(
            int(math.ceil(window / self.bucket_seconds)),
            self._num_buckets,
        )
        oldest = newest - span + 1
        count = errors = 0
        parts: Dict[str, List[Histogram]] = {}
        with self._lock:
            for bucket in self._buckets:
                if oldest <= bucket.index <= newest:
                    count += bucket.count
                    errors += bucket.errors
                    for name, hist in bucket.streams.items():
                        parts.setdefault(name, []).append(hist)
            # A bucket's histogram exists only once it has a sample.
            merged = [
                Histogram.merged(name, parts[name]) for name in sorted(parts)
            ]
        # QPS denominator: only history that exists.  The newest bucket
        # is partially filled, so cover from the oldest *requested*
        # bucket boundary (clamped to start-up) through now.
        window_floor = max(self._start, self._start + oldest * self.bucket_seconds)
        covered = min(max(now - window_floor, self.bucket_seconds * 1e-6), window)
        finished = count + errors
        return {
            "counters": {
                "query.count": count,
                "query.errors": errors,
                "window.seconds": window,
                "window.covered_seconds": covered,
                "window.qps": finished / covered,
                "window.error_rate": errors / finished if finished else 0.0,
            },
            "histograms": {hist.name: hist.summary() for hist in merged},
        }
