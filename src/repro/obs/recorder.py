"""Flight recorder: capture live queries for deterministic replay.

Every distance backend promises byte-identical answers — but tests
alone never exercise that on live traffic.  The flight recorder closes
the gap with one rule: *an answer is audited by recording it and
replaying the journal*.

1. **Capture** — :class:`FlightRecorder` is a thread-safe bounded ring
   subscribed to the database's per-query events
   (:mod:`repro.obs.events`), one record per executed query: the
   event's encoding — full query parameters (enough to re-plan it from
   scratch), plan label and cost hints (backend, data epoch), latency,
   a complete :class:`~repro.core.queries.QueryStats` snapshot — plus
   a stable :func:`result_digest`.  Committed
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

The digest is the contract between the two: an ordered sha256 over
``object_id:distance`` pairs (distances formatted to 9 significant
digits, robust to last-ulp float noise across backends) plus the
rounded diversified objective value.  Two executions agree iff they
returned the same objects, in the same order, at the same distances
and objective.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Optional

from .sinks import RecordRing

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


def result_digest(result) -> str:
    """A stable 16-hex-char digest of one query result.

    Covers the ordered object ids, each item's network distance
    (rounded to :data:`DIGEST_PRECISION` significant digits) and — for
    diversified results — the rounded objective value.  Identical
    answers from different backends digest identically; any
    reordering, membership change, distance drift above rounding noise
    or objective change produces a different digest.
    """
    parts: List[str] = []
    for item in getattr(result, "items", ()):
        parts.append(
            f"{item.object.object_id}:{item.distance:.{DIGEST_PRECISION}g}"
        )
    objective = getattr(result, "objective_value", None)
    if objective is not None:
        parts.append(f"obj:{objective:.{DIGEST_PRECISION}g}")
    payload = "|".join(parts)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def query_to_dict(query) -> Dict[str, Any]:
    """JSON-able query parameters, sufficient to rebuild the query.

    Duck-typed over the two query families (SK range / diversified):
    whatever of ``delta_max``, ``k``, ``lambda_`` and ``limit`` the
    query carries is captured — ``limit`` only when it is set.
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
        ("limit", "limit"),
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


class FlightRecorder(RecordRing):
    """Thread-safe bounded ring of per-query flight records.

    :attr:`MAX_RECORDS` bounds the in-memory ring (oldest evicted
    first; ``dropped`` counts evictions).  ``path`` streams every record
    — header, queries and updates alike — to a JSON-lines journal as it
    is captured, flushing per record so a killed run still replays.
    """

    MAX_RECORDS = 4096

    def __init__(self, path=None) -> None:
        super().__init__(path)
        #: Lifetime counters: queries observed (== recorded), updates
        #: journalled.
        self.observed = 0
        self.updates = 0

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
            if self._sink is not None:
                self._sink.emit(header)
        return header

    def record_query(self, event) -> Optional[Dict[str, Any]]:
        """Capture one finished query (engine hot path; one lock hold).

        ``event`` is the query's :class:`~repro.obs.events.QueryEvent`;
        its ``sequence`` (the caller's batch index, when known) is what
        the replay driver aligns on and ``seq`` is the recorder's own
        arrival counter.  Failed queries are not journalled (there is
        no answer to replay against).
        """
        if event.error is not None:
            return None
        record: Dict[str, Any] = {
            "type": "flight",
            **event.to_dict(),
            "digest": event.digest,
        }
        with self._lock:
            self.observed += 1
            record["seq"] = self.observed
            self._push(record)
        return record

    def record_update(self, update) -> Dict[str, Any]:
        """Journal one committed update inline with the query stream."""
        record = update_to_dict(update)
        with self._lock:
            self.updates += 1
            self._push(record)
        return record

    # -- inspection ----------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "type": "recorder_summary",
                "observed": self.observed,
                "buffered": len(self._records),
                "dropped": self.dropped,
                "updates": self.updates,
                "max_records": self.MAX_RECORDS,
                "path": str(self.path) if self.path is not None else None,
            }
