"""Flight recorder: capture live queries for deterministic replay.

Three distance backends all promise byte-identical answers — but that
equivalence is only exercised by tests, never by live traffic.  The
flight recorder closes the gap with the standard production audit loop:

1. **Capture** — :class:`FlightRecorder` is a thread-safe bounded ring
   the query engine feeds with one record per executed query: the full
   query parameters (enough to re-plan it from scratch), the plan
   label and cost hints (backend, data epoch), a stable
   :func:`result_digest`, the latency and a complete
   :class:`~repro.core.queries.QueryStats` snapshot.  Committed
   dynamic updates are journalled inline (``flight_update`` records),
   so the capture is a self-contained history of the data the queries
   saw.  An optional JSON-lines sink persists every record as it
   happens (``--record FILE`` on the workload CLIs).

2. **Replay** — :mod:`repro.workloads.replay` re-executes a captured
   journal deterministically: re-plans each query from its recorded
   parameters, re-applies the recorded updates between epoch groups,
   and diffs digests and invariant counters against the recording
   (``repro replay FILE``, with ``--backend``/``--workers``
   overrides for cross-backend audits).

3. **Shadow execution** — the engine's ``--shadow-backend`` mode runs
   a sampled fraction of queries a second time on another backend
   inside the same execution context and compares digests in flight
   (see :meth:`repro.engine.executor.QueryEngine.enable_shadow`).

The digest is the contract between all three: an ordered sha256 over
``object_id:distance`` pairs (distances formatted to 9 significant
digits, robust to last-ulp float noise across backends) plus the
rounded diversified objective value.  Two executions agree iff they
returned the same objects, in the same order, at the same distances
and objective.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Any, Dict, List, Optional

from .sinks import JsonLinesSink
from .slowlog import stats_to_dict

__all__ = [
    "FlightRecorder",
    "result_digest",
    "query_to_dict",
    "update_to_dict",
]

#: Significant digits kept when a distance/objective enters a digest.
#: 9 digits keeps full float32-class precision while absorbing the
#: last-ulp noise different summation orders can produce.
DIGEST_PRECISION = 9


def result_digest(result, precision: int = DIGEST_PRECISION) -> str:
    """A stable 16-hex-char digest of one query result.

    Covers the ordered object ids, each item's network distance
    (rounded to ``precision`` significant digits) and — for
    diversified results — the rounded objective value.  Identical
    answers from different backends digest identically; any
    reordering, membership change, distance drift above rounding noise
    or objective change produces a different digest.
    """
    parts: List[str] = []
    for item in getattr(result, "items", ()):
        parts.append(
            f"{item.object.object_id}:{item.distance:.{precision}g}"
        )
    objective = getattr(result, "objective_value", None)
    if objective is not None:
        parts.append(f"obj:{objective:.{precision}g}")
    payload = "|".join(parts)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def query_to_dict(query) -> Dict[str, Any]:
    """JSON-able query parameters, sufficient to rebuild the query.

    Duck-typed over the three query families (SK range / kNN /
    diversified): whatever of ``delta_max``, ``k``, ``lambda_``,
    ``horizon`` and ``initial_radius`` the query carries is captured.
    """
    position = query.position
    out: Dict[str, Any] = {
        "position": {
            "edge_id": position.edge_id,
            "offset": position.offset,
        },
        "terms": sorted(query.terms),
    }
    for attr, key in (
        ("delta_max", "delta_max"),
        ("k", "k"),
        ("lambda_", "lambda"),
        ("horizon", "horizon"),
        ("initial_radius", "initial_radius"),
    ):
        value = getattr(query, attr, None)
        if value is not None:
            out[key] = value
    return out


def update_to_dict(record) -> Dict[str, Any]:
    """One committed :class:`~repro.core.updates.UpdateRecord` as JSON."""
    out: Dict[str, Any] = {
        "type": "flight_update",
        "epoch": record.epoch,
        "kind": record.kind,
        "edge_id": record.edge_id,
    }
    if record.terms:
        out["terms"] = sorted(record.terms)
    if record.position is not None:
        out["position"] = {
            "edge_id": record.position.edge_id,
            "offset": record.position.offset,
        }
    if record.object_id is not None:
        out["object_id"] = record.object_id
    if record.weight is not None:
        out["weight"] = record.weight
    return out


class FlightRecorder:
    """Thread-safe bounded ring of per-query flight records.

    ``max_records`` bounds the in-memory ring (oldest evicted first;
    ``dropped`` counts evictions).  ``path`` streams every record —
    header, queries and updates alike — to a JSON-lines journal as it
    is captured, flushing per record so a killed run still replays.
    ``metrics`` optionally counts captures into a shared registry
    (``recorder.records`` / ``recorder.updates``).
    """

    def __init__(
        self,
        max_records: int = 4096,
        path=None,
        metrics=None,
    ) -> None:
        if max_records < 1:
            raise ValueError("max_records must be >= 1")
        self.max_records = max_records
        self.metrics = metrics
        self._records: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._sink = JsonLinesSink(path) if path is not None else None
        self.header: Optional[Dict[str, Any]] = None
        #: Lifetime counters: queries observed (== recorded), ring
        #: evictions, updates journalled.
        self.observed = 0
        self.dropped = 0
        self.updates = 0

    @property
    def path(self):
        return self._sink.path if self._sink is not None else None

    # -- capture -------------------------------------------------------
    def set_header(self, **fields) -> Dict[str, Any]:
        """Stamp the journal with its run context (emitted first).

        The replay CLI rebuilds the dataset from these fields (profile,
        scale, seed) and restores the recorded backend unless
        overridden, so a journal is self-describing.
        """
        header = {"type": "flight_header", "version": 1}
        header.update(fields)
        with self._lock:
            self.header = header
            if self._sink is not None:
                self._sink.emit(header)
        return header

    def record_query(
        self,
        plan,
        result,
        digest: str,
        sequence: Optional[int] = None,
        worker: str = "",
        shadow: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Capture one finished query (engine hot path; one lock hold).

        ``sequence`` is the caller's batch index when known — the
        replay driver aligns on it; ``seq`` is the recorder's own
        arrival counter.  ``shadow`` carries the shadow-execution
        outcome dict when one ran alongside this query.
        """
        stats = result.stats
        record: Dict[str, Any] = {
            "type": "flight",
            "kind": plan.kind,
            "label": plan.label,
            "algorithm": plan.algorithm,
            "index": plan.index.name,
            "query": query_to_dict(plan.query),
            "epoch": stats.epoch,
            "digest": digest,
            "results": len(result),
            "result_cache_hit": stats.result_cache_hit,
            "wall_seconds": stats.wall_seconds,
            "worker": worker,
            "stats": stats_to_dict(stats),
        }
        if sequence is not None:
            record["sequence"] = sequence
        hints = getattr(plan, "hints", None)
        if hints is not None:
            record["hints"] = {
                "distance_backend": hints.distance_backend,
                "data_version": hints.data_version,
            }
        objective = getattr(result, "objective_value", None)
        if objective is not None:
            record["objective"] = round(objective, DIGEST_PRECISION)
        if shadow is not None:
            record["shadow"] = shadow
        with self._lock:
            self.observed += 1
            record["seq"] = self.observed
            if len(self._records) >= self.max_records:
                self._records.pop(0)
                self.dropped += 1
            self._records.append(record)
            if self._sink is not None:
                self._sink.emit(record)
        if self.metrics is not None:
            self.metrics.inc("recorder.records")
        return record

    def record_update(self, update) -> Dict[str, Any]:
        """Journal one committed update inline with the query stream."""
        record = update_to_dict(update)
        with self._lock:
            self.updates += 1
            if len(self._records) >= self.max_records:
                self._records.pop(0)
                self.dropped += 1
            self._records.append(record)
            if self._sink is not None:
                self._sink.emit(record)
        if self.metrics is not None:
            self.metrics.inc("recorder.updates")
        return record

    # -- inspection ----------------------------------------------------
    def records(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Ring contents, oldest first (snapshot copy)."""
        with self._lock:
            records = list(self._records)
        if limit is not None:
            records = records[-limit:]
        return records

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def summary(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "type": "recorder_summary",
                "observed": self.observed,
                "buffered": len(self._records),
                "dropped": self.dropped,
                "updates": self.updates,
                "max_records": self.max_records,
                "path": str(self.path) if self.path is not None else None,
            }

    def close(self) -> None:
        if self._sink is not None:
            self._sink.close()
