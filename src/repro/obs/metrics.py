"""Metric primitives: histograms and per-stage timers.

The paper reports one number per experiment (average response time);
a serving system needs to know *where* each query's time went and what
the tail looks like.  This module supplies the primitives the rest of
the library records into:

* :class:`Histogram` — a sample store with percentile queries
  (p50/p95/p99) over everything observed.
* :class:`StageClock` — a per-query accumulator of named stage
  durations (``expansion``, ``pairwise_dijkstra``, ...).

:class:`MetricsRegistry` names and owns the counters (plain ints) and
histograms of one :class:`~repro.core.database.Database` and fans
per-query records out to sinks (:mod:`repro.obs.sinks`).  It is the
first subscriber of the database's per-query events
(:meth:`MetricsRegistry.on_query`).

Instrumentation overhead matters: the hot paths (buffer accesses,
pairwise node-map lookups) keep plain integer attributes that are read as
*deltas* at query granularity, and a finished query is folded into the
registry in one lock hold, keeping the overhead well under the ~5 %
budget.
"""

from __future__ import annotations

import math
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import TYPE_CHECKING, Dict, List, Sequence

if TYPE_CHECKING:  # pragma: no cover — annotation only
    from .sinks import Sink

__all__ = [
    "Histogram",
    "StageClock",
    "MetricsRegistry",
    "percentile_of_sorted",
]


def percentile_of_sorted(ordered: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0..100) of a non-empty ascending
    sequence, linearly interpolated between the two nearest ranks.

    The one rank formula behind every p50/p95/p99 the library reports;
    what an *empty* sample set means (NaN or 0.0) is each caller's
    contract and stays at the call site.
    """
    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


class Histogram:
    """Stores observed samples and answers percentile queries.

    Samples are kept exactly up to ``max_samples``; beyond that the
    store is halved and the sampling stride doubled, so what remains is
    always a uniform systematic subsample of the whole stream (without
    the stride, post-halving observations would arrive at full rate
    and recent values would dominate the percentiles).  Memory stays
    bounded on long workloads while count/sum/min/max remain exact.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_samples",
                 "_max_samples", "_sorted", "_stride", "_pending")

    def __init__(self, name: str, max_samples: int = 65536) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._samples: List[float] = []
        self._max_samples = max_samples
        self._sorted = True
        self._stride = 1
        self._pending = 0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self._pending += 1
        if self._pending < self._stride:
            return
        self._pending = 0
        self._samples.append(value)
        self._sorted = False
        if len(self._samples) > self._max_samples:
            self._samples = self._samples[::2]
            self._stride *= 2

    @property
    def mean(self) -> float:
        """Mean of all observations; NaN when nothing was observed.

        NaN (not 0.0) so an empty histogram can never be mistaken for
        one that observed genuinely-zero durations in a report.
        """
        return self.total / self.count if self.count else math.nan

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0..100); NaN when no samples."""
        if not self._samples:
            return math.nan
        if not self._sorted:
            self._samples.sort()
            self._sorted = True
        return percentile_of_sorted(self._samples, p)

    @classmethod
    def merged(cls, name: str, parts: Sequence["Histogram"]) -> "Histogram":
        """One histogram over every part's stream: count, sum, min and
        max stay exact; the kept samples are pooled.

        Each part is first thinned to the coarsest stride among the
        parts (strides are powers of two), so every pooled sample
        stands for the same number of observations — else a busy part
        kept at stride 4 would weigh a quarter of a quiet one's.
        """
        merged = cls(name)
        merged.count = sum(part.count for part in parts)
        merged.total = sum(part.total for part in parts)
        merged.min = min(part.min for part in parts)
        merged.max = max(part.max for part in parts)
        merged._stride = max(part._stride for part in parts)
        merged._samples = [
            s for part in parts
            for s in part._samples[:: merged._stride // part._stride]
        ]
        merged._sorted = False
        return merged

    def summary(self) -> Dict[str, float]:
        if not self.count:
            return {"count": 0}
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return f"Histogram({self.name}, n={self.count})"


class StageClock:
    """Accumulates wall time per named stage for one query execution.

    Stages may nest or overlap (e.g. ``pairwise_dijkstra`` time is also
    inside ``maintenance`` for COM); consumers must not assume the
    stage times partition the query wall time.
    """

    __slots__ = ("stages",)

    def __init__(self) -> None:
        self.stages: Dict[str, float] = {}

    def add(self, stage: str, seconds: float) -> None:
        self.stages[stage] = self.stages.get(stage, 0.0) + seconds

    @contextmanager
    def stage(self, name: str):
        t0 = time.perf_counter()
        try:
            yield self
        finally:
            self.add(name, time.perf_counter() - t0)

    def timed_iter(self, iterable, stage: str):
        """Wrap an iterator, charging time spent producing items.

        Closing the wrapper closes the underlying iterator, preserving
        COM's early-termination contract (Algorithm 6 line 16).
        """
        iterator = iter(iterable)
        try:
            while True:
                t0 = time.perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    self.add(stage, time.perf_counter() - t0)
                    return
                self.add(stage, time.perf_counter() - t0)
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()


class MetricsRegistry:
    """Named counters + histograms of one database, with record sinks.

    Thread-safe: recording (``inc``/``observe``/``emit``) and
    creation/lookup run under one internal re-entrant lock, so queries
    executing concurrently (``QueryEngine.execute_many``) never lose
    increments or interleave sink writes.  A query takes the lock once,
    when it finishes, so the lock is off the hot path.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, int] = defaultdict(int)
        self._histograms: Dict[str, Histogram] = {}
        self._sinks: List[Sink] = []
        self._lock = threading.RLock()

    # -- creation / lookup --------------------------------------------
    def histogram(self, name: str) -> Histogram:
        with self._lock:
            h = self._histograms.get(name)
            if h is None:
                h = self._histograms[name] = Histogram(name)
            return h

    # -- recording ----------------------------------------------------
    def inc(self, name: str) -> None:
        with self._lock:
            self._counters[name] += 1

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            self.histogram(name).observe(value)

    def observe_stages(self, stages: Dict[str, float]) -> None:
        """Record one query's per-stage seconds into stage histograms."""
        for stage, seconds in stages.items():
            self.observe(f"stage.{stage}.seconds", seconds)

    def on_query(self, event) -> None:
        """Subscriber: fold one finished (or failed) query into the registry.

        ``event`` is a :class:`~repro.obs.events.QueryEvent`.  ``counts``
        below is the one table from ``QueryStats`` fields to lifetime
        counters (a zero still creates its counter, so a scrape shows
        the family before its first hit).  The ``#`` separates a counter
        family from its label value: the Prometheus exporter turns
        ``query.plan#SIF/COM`` into ``repro_query_plan{plan="SIF/COM"}``,
        so mixed workloads stay attributable.  With a sink attached the
        query is also emitted as a ``"query"`` record — the event's
        encoding, built only then.
        """
        label = event.plan.label
        if event.error is not None:
            # A misbehaving plan shows up on /metrics instead of
            # vanishing with the exception the engine re-raises.
            self.inc("query.errors")
            self.inc(f"query.error#{label}")
            return
        stats = event.stats
        counts = [
            ("query.count", 1),
            (f"query.plan#{label}", 1),
            (f"query.backend.{stats.distance_backend}", 1),
            ("pairwise.dijkstra_runs", stats.pairwise_dijkstras),
            ("distance_cache.hits", stats.distance_cache_hits),
            ("distance_cache.misses", stats.distance_cache_misses),
            ("buffer.evictions", stats.buffer_evictions),
        ]
        if event.plan.kind == "diversified":
            # COM's §4.3 early termination is the pruning the paper's
            # diversified-search figures measure; counting it (and the
            # diversified denominator) lets SLO rules gate on the
            # early-termination percentage.
            counts.append(("query.diversified_count", 1))
            if stats.expansion_terminated_early:
                counts.append(("query.early_terminations", 1))
        if stats.io is not None:
            counts += (
                ("io.logical_reads", stats.io.logical_reads),
                ("io.physical_reads", stats.io.physical_reads),
                ("io.buffer_hits", stats.io.buffer_hits),
            )
        with self._lock:
            counters = self._counters
            for name, n in counts:
                counters[name] += n
            self.observe("query.wall_seconds", stats.wall_seconds)
            self.observe_stages(stats.stage_seconds)
        if self._sinks:
            self.emit({"type": "query", **event.to_dict()})

    # -- sinks --------------------------------------------------------
    def add_sink(self, sink: Sink) -> None:
        """Attach a sink; it receives every record passed to :meth:`emit`."""
        self._sinks.append(sink)

    def remove_sink(self, sink: Sink) -> None:
        if sink in self._sinks:
            self._sinks.remove(sink)

    def emit(self, record: Dict) -> None:
        """Fan one record (a JSON-able dict) out to every sink."""
        with self._lock:
            for sink in self._sinks:
                sink.emit(record)

    # -- reporting ----------------------------------------------------
    @contextmanager
    def locked(self):
        """Hold the registry lock across a multi-step read.

        A live scrape (:func:`repro.obs.export.prometheus_text`) reads
        histogram percentiles — which sort the sample store in place —
        while workers keep observing; taking the same lock the
        recording paths use makes the whole exposition one consistent,
        race-free snapshot.
        """
        with self._lock:
            yield self

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return dict(sorted(self._counters.items()))

    def histograms(self) -> Dict[str, Histogram]:
        with self._lock:
            return dict(self._histograms)

    def snapshot(self) -> Dict[str, Dict]:
        """One JSON-able dict of every counter and histogram summary.

        Histograms that never observed a sample are omitted: their
        percentiles are NaN (not JSON-serialisable) and an all-zero row
        in a workload report reads as a measurement rather than an
        absence.
        """
        with self._lock:
            return {
                "counters": self.counters(),
                "histograms": {
                    name: h.summary()
                    for name, h in sorted(self._histograms.items())
                    if h.count
                },
            }
