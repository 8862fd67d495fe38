"""Slow-query log: capture outlier queries with their full context.

Workload reports show the p95/p99 *numbers*; when the tail moves, an
operator needs the *queries* that produced it.  This module keeps a
thread-safe, bounded log of every query that crossed a configurable
threshold — wall-clock latency, network nodes visited, or both.  The
log is a subscriber of the database's per-query events
(:mod:`repro.obs.events`); a captured record is the event's one
encoding — plan label, kind, query parameters, full
:class:`~repro.core.queries.QueryStats` snapshot, worker thread — plus
the result digest, what crossed which bound, and the complete per-query
span tree when tracing was on (:meth:`~repro.obs.tracing.Span.to_dict`).

The log composes with concurrent execution: records are numbered and
appended under one lock and per-query tracers are context-owned, so a
4-worker ``execute_many`` never interleaves records.  An optional
JSON-lines sink persists each record as it is captured (flushing per
record, so a killed run still leaves usable data); ``repro slowlog
FILE`` renders the file back through the EXPLAIN narrator.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .sinks import RecordRing
from .slo import render_check
from .tracing import Span

__all__ = [
    "SlowQueryThreshold",
    "SlowQueryLog",
    "render_record",
    "render_breach_record",
]


class SlowQueryThreshold:
    """When is a query *slow*?  Latency and/or visited-node bounds.

    A query is captured when **any** configured bound is met or
    exceeded.  ``latency_seconds=0`` deliberately matches every query
    (useful to smoke-test the capture pipeline in CI).
    """

    __slots__ = ("latency_seconds", "visited_nodes")

    def __init__(
        self,
        latency_seconds: Optional[float] = None,
        visited_nodes: Optional[int] = None,
    ) -> None:
        if latency_seconds is None and visited_nodes is None:
            raise ValueError(
                "a slow-query threshold needs latency_seconds and/or "
                "visited_nodes"
            )
        if latency_seconds is not None and latency_seconds < 0:
            raise ValueError("latency_seconds must be non-negative")
        if visited_nodes is not None and visited_nodes < 0:
            raise ValueError("visited_nodes must be non-negative")
        self.latency_seconds = latency_seconds
        self.visited_nodes = visited_nodes

    def exceeded(
        self, wall_seconds: float, nodes_accessed: int = 0
    ) -> List[str]:
        """Which bounds this query crossed (empty list = not slow)."""
        reasons = []
        if (
            self.latency_seconds is not None
            and wall_seconds >= self.latency_seconds
        ):
            reasons.append("latency")
        if (
            self.visited_nodes is not None
            and nodes_accessed >= self.visited_nodes
        ):
            reasons.append("visited_nodes")
        return reasons

    def verdict(self, wall_seconds: float, nodes_accessed: int = 0) -> str:
        """One-line SLOW/OK judgement (used by ``repro explain``)."""
        reasons = self.exceeded(wall_seconds, nodes_accessed)
        parts = []
        if self.latency_seconds is not None:
            op = "≥" if "latency" in reasons else "<"
            parts.append(
                f"{wall_seconds * 1e3:.3f} ms {op} "
                f"{self.latency_seconds * 1e3:g} ms threshold"
            )
        if self.visited_nodes is not None:
            op = "≥" if "visited_nodes" in reasons else "<"
            parts.append(
                f"{nodes_accessed} nodes {op} "
                f"{self.visited_nodes} node threshold"
            )
        label = "SLOW" if reasons else "OK"
        return f"{label} — " + ", ".join(parts)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "latency_seconds": self.latency_seconds,
            "visited_nodes": self.visited_nodes,
        }

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return (
            f"SlowQueryThreshold(latency_seconds={self.latency_seconds}, "
            f"visited_nodes={self.visited_nodes})"
        )


class SlowQueryLog(RecordRing):
    """Thread-safe bounded log of threshold-crossing queries.

    ``max_records`` bounds memory: the most recent offenders are kept,
    the oldest dropped (``dropped`` counts them).  ``path`` optionally
    streams every captured record to a JSON-lines file as it happens.
    """

    def __init__(
        self,
        threshold: SlowQueryThreshold,
        max_records: int = 256,
        path=None,
    ) -> None:
        super().__init__(max_records, path)
        self.threshold = threshold
        #: Queries offered / captured, lifetime.
        self.observed = 0
        self.captured = 0

    def offer(self, event) -> Optional[Dict[str, Any]]:
        """Judge one finished query; capture and return it when slow.

        ``event`` is the query's :class:`~repro.obs.events.QueryEvent`.
        A captured record always carries the result digest, so two
        divergent captures are diffable without re-running anything.
        Returns the captured record, or ``None`` for fast (and failed)
        queries.
        """
        if event.error is not None:
            return None
        stats = event.stats
        reasons = self.threshold.exceeded(
            stats.wall_seconds, stats.nodes_accessed
        )
        record = None
        if reasons:
            trace = event.trace
            record = {
                "type": "slow_query",
                **event.to_dict(),
                "digest": event.digest,
                "exceeded": reasons,
                "threshold": self.threshold.to_dict(),
                "trace": trace.to_dict() if trace is not None else None,
            }
        with self._lock:
            self.observed += 1
            if record is not None:
                self.captured += 1
                record["seq"] = self.captured
                self._push(record)
        return record

    def note(self, record: Dict[str, Any]) -> None:
        """Append a non-query annotation to the log's record stream.

        Used by the live SLO monitor to interleave ``slo_breach``
        events with the slow queries of the same window, so one
        ``repro slowlog FILE`` render tells the whole story.  Notes
        share the record bound but do not count as captured queries.
        """
        with self._lock:
            self._push(record)

    def summary(self) -> Dict[str, Any]:
        """One JSON-able roll-up (emitted with workload summaries)."""
        with self._lock:
            return {
                "type": "slowlog_summary",
                "observed": self.observed,
                "captured": self.captured,
                "dropped": self.dropped,
                "threshold": self.threshold.to_dict(),
            }


def render_breach_record(record: Dict[str, Any]) -> str:
    """Narrate one ``slo_breach`` note (from the live SLO monitor)."""
    window = record.get("window", {}) or {}
    header = (
        f"SLO BREACH  [{record.get('spec', '?')}]  "
        f"window {window.get('window_seconds', '?')}s: "
        f"{window.get('count', '?')} queries, "
        f"qps {window.get('qps', 0.0):.1f}, "
        f"error rate {100.0 * window.get('error_rate', 0.0):.1f}%"
    )
    return "\n".join(
        [header, *(f"  {render_check(c)}" for c in record.get("failed", ()))]
    )


def render_record(record: Dict[str, Any]) -> str:
    """Narrate one slow-query record (the ``repro slowlog`` renderer).

    The header states what crossed which bound and the planner's
    estimate beside the realised candidate count (plus the data epoch
    when non-zero); the body reuses the
    EXPLAIN narrator over the persisted span tree when one was
    captured, and falls back to the stage breakdown otherwise.  A
    record whose span tree is absent or malformed (tracing disabled,
    truncated file, older schema) renders from its stats instead of
    failing, so one bad line never kills a whole ``repro slowlog``
    run.  ``slo_breach`` notes render through
    :func:`render_breach_record`.
    """
    from .explain import render_span_tree  # deferred: explain imports us

    if record.get("type") == "slo_breach":
        return render_breach_record(record)
    stats = record.get("stats") or {}
    wall_ms = record.get("wall_seconds", 0.0) * 1e3
    # Logs written before the one per-query encoding repeat the count
    # at top level (and the oldest have it only there).
    nodes = stats.get("nodes_accessed", record.get("nodes_accessed", "?"))
    # The planner's prediction beside what the query realised; records
    # written before the encoding carried the estimate go without.
    estimate = (record.get("hints") or {}).get("estimated_matches")
    predicted = (
        f", est. {estimate:.3g} → {stats.get('candidates', '?')} candidates"
        if isinstance(estimate, (int, float)) else ""
    )
    header = (
        f"SLOW QUERY #{record.get('seq', '?')}  "
        f"[{record.get('label', '?')}]  {wall_ms:.3f} ms, "
        f"{nodes} nodes visited{predicted} "
        f"(exceeded: {', '.join(record.get('exceeded', ())) or '?'}; "
        f"worker {record.get('worker') or '?'})"
    )
    epoch = stats.get("epoch")
    if epoch:
        header += f"  [epoch {epoch}]"
    if record.get("digest"):
        header += f"  [digest {record['digest']}]"
    lines = [header]
    rendered_trace = None
    trace = record.get("trace")
    if trace:
        try:
            if not isinstance(trace, dict) or "name" not in trace:
                raise ValueError("not a serialised span tree")
            rendered_trace = render_span_tree(Span.from_dict(trace))
        except Exception:  # noqa: BLE001 — malformed tree, fall back
            lines.append("  (span tree malformed — rendering stats)")
    if rendered_trace is not None:
        lines.append(rendered_trace)
    else:
        stages = stats.get("stage_seconds", {})
        if stages:
            breakdown = ", ".join(
                f"{stage} {seconds * 1e3:.3f} ms"
                for stage, seconds in sorted(
                    stages.items(), key=lambda kv: -kv[1]
                )
            )
            lines.append(f"  stages: {breakdown}")
        if not trace:
            lines.append("  (no span tree captured — run with tracing on)")
    return "\n".join(lines)
