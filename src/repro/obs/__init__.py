"""Observability: counters, histograms, stage timers and record sinks.

The metrics layer makes the serving-performance story measurable: each
:class:`~repro.core.database.Database` owns a
:class:`~repro.obs.metrics.MetricsRegistry`; every query records its
wall time, per-stage breakdown (INE expansion, signature verification,
pairwise Dijkstras, greedy/core-pair maintenance, simulated buffer
I/O) and cache/buffer counter deltas into it, and emits one JSON-able
record per query to any attached sink.

The tracing layer (:mod:`repro.obs.tracing`) complements the flat
metrics with one span tree per query, built by the query's own tracer
and carried on its :class:`~repro.obs.events.QueryEvent`;
:mod:`repro.obs.explain` narrates a tree as an EXPLAIN report,
:mod:`repro.obs.slowlog` captures threshold-crossing queries with
their trees, :mod:`repro.obs.export` writes a registry as Prometheus
text, and :mod:`repro.obs.slo` judges declarative service-level
objectives against a snapshot (:class:`~repro.obs.slo.SLOMonitor`).

The live plane builds on those primitives: :mod:`repro.obs.rollup`
keeps a sliding window of recent queries whose snapshot has the
registry's shape, so the same monitor judges it *continuously*;
:mod:`repro.obs.server` serves it all over HTTP (``/metrics``; ``GET
/`` lists the routes) for scraping while a workload runs.  It is
imported on first use of :class:`TelemetryServer`, so a process that
serves nothing does not load ``http.server`` and what it pulls in.
"""

from .explain import ExplainReport, render_span_tree
from .export import database_gauges, prometheus_text, write_prometheus
from .export import escape_label_value
from .events import QueryEvent, stats_to_dict
from .metrics import Histogram, MetricsRegistry, StageClock
from .rollup import SlidingWindowRollup
from .sinks import InMemorySink, JsonLinesSink, Sink
from .slo import SLOMonitor, SLORule, SLOSpec, render_check
from .slowlog import (
    SlowQueryLog,
    SlowQueryThreshold,
    render_breach_record,
    render_record,
)
from .tracing import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "StageClock",
    "InMemorySink",
    "JsonLinesSink",
    "Sink",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "ExplainReport",
    "render_span_tree",
    "prometheus_text",
    "write_prometheus",
    "database_gauges",
    "SlowQueryLog",
    "SlowQueryThreshold",
    "render_record",
    "render_breach_record",
    "QueryEvent",
    "stats_to_dict",
    "SLOSpec",
    "SLORule",
    "SLOMonitor",
    "render_check",
    "SlidingWindowRollup",
    "TelemetryServer",
    "escape_label_value",
]


def __getattr__(name: str):
    # PEP 562: resolve the HTTP server on first use only.
    if name == "TelemetryServer":
        from .server import TelemetryServer

        return TelemetryServer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
