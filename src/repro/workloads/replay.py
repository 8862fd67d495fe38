"""Deterministic replay of a captured flight-recorder journal.

The flight recorder (:mod:`repro.obs.recorder`) journals every
executed query — parameters, plan label, data epoch, result digest,
invariant counters — with committed dynamic updates interleaved.
This module re-executes that journal from scratch and diffs the
outcome against the recording:

* queries are **re-planned from their recorded parameters** (position,
  terms, δmax, k, λ) under the recorded algorithm — a pin pinned, an
  un-pinned (``auto``) plan un-pinned, taking the exit its pool picks;
* updates are re-applied **between epoch groups**, restoring the exact
  ``data_version`` each recorded query executed against (object ids
  are sequential, so replayed inserts reproduce the recorded ids — and
  that is asserted, not assumed);
* each replayed result's :func:`~repro.obs.recorder.result_digest` and
  invariant counters (result count, candidates, objective) are diffed
  against the recording, accumulating into a
  :class:`ReplayReport` with a per-plan-label breakdown.

Run unchanged, replay proves determinism.  Run with a different
distance backend or worker count (``repro replay FILE
--backend dijkstra --workers 4``), it is a cross-backend / concurrency
audit: any digest that moves is a real divergence, localised to a
plan label and a journal sequence number.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..core.queries import DiversifiedSKQuery, SKQuery
from ..engine.plan import plan_diversified, plan_sk
from ..errors import QueryError
from ..network.distance import DISTANCE_BACKENDS
from ..network.graph import NetworkPosition
from ..obs.recorder import DIGEST_PRECISION, result_digest

__all__ = [
    "FlightJournal",
    "ReplayConfig",
    "ReplayDivergence",
    "ReplayReport",
    "journal_backend",
    "load_flight_journal",
    "run_replay",
]

#: Recorded ``index`` field (the index's display name) → the
#: :meth:`Database.build_index` kind that rebuilds it.
INDEX_KIND_BY_NAME = {
    "CCAM": "ccam",
    "IR": "ir",
    "IF": "if",
    "SIF": "sif",
    "SIF-P": "sif-p",
    "SIF-G": "sif-g",
}

#: The pairwise searches run and kept-row lookups made: compared only
#: when both runs' pairs came from searches (a backend of
#: ``DISTANCE_BACKENDS``), not from an oracle that answers them with
#: none — the hub labels tests hand a computer, or a retired backend a
#: journal was recorded on.
_PAIRWISE_STATS = (
    "pairwise_dijkstras", "distance_cache_hits", "distance_cache_misses",
)

#: Invariant counters replay compares (beyond the digest): the INE
#: expansion's search shape, COM's core-pair work and the pairwise
#: counters, which no distance backend changes.  Skipped for a record
#: marked ``result_cache_hit`` — journals written while the engine had
#: a result cache carry it, and a cached answer did no expansion.
_INVARIANT_STATS = (
    "candidates", "nodes_accessed", "edges_accessed", "objects_loaded",
    "false_hit_objects", "theta_evaluations", "expansion_terminated_early",
    *_PAIRWISE_STATS,
)

#: Header keys of modes that no longer exist (journals recorded while
#: the engine had a CSR frontier and a scalar scoring mode carry them);
#: replay ignores them and says so.
_RETIRED_HEADER_KEYS = ("frontier", "scoring")

#: Distance backends a header may name that no longer exist; such a
#: journal replays on ``csgraph`` (no backend ever changed an answer),
#: and says so the same way.
_RETIRED_BACKENDS = ("ch", "hub")


def journal_backend(header: Dict[str, Any]) -> Optional[str]:
    """The distance backend a journal replays on unless overridden.

    The one its header records; ``csgraph`` for a retired one; and
    ``dijkstra`` when the header has none — it predates the stamp, and
    with it every backend but the Python Dijkstra.  ``None`` when the
    header names a backend this build does not know.
    """
    backend = header.get("distance_backend") or "dijkstra"
    if backend in _RETIRED_BACKENDS:
        return "csgraph"
    return backend if backend in DISTANCE_BACKENDS else None


@dataclass
class FlightJournal:
    """One parsed journal: header + query records + update records."""

    header: Optional[Dict[str, Any]] = None
    queries: List[Dict[str, Any]] = field(default_factory=list)
    updates: List[Dict[str, Any]] = field(default_factory=list)
    #: Malformed/unknown lines skipped while parsing.
    skipped: int = 0
    #: ``flight_header`` records read: one per recorded run, since
    #: ``--record`` appends.  :attr:`header` is the last.
    headers: int = 0

    def __len__(self) -> int:
        return len(self.queries) + len(self.updates)


def load_flight_journal(path) -> FlightJournal:
    """Parse a ``--record`` JSON-lines file into a :class:`FlightJournal`.

    Unknown record types (metric snapshots, slowlog entries — journals
    may share a sink) and malformed lines are counted, not fatal, so a
    journal truncated by a killed run still replays its valid prefix.
    """
    journal = FlightJournal()
    path = Path(path)
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                journal.skipped += 1
                continue
            kind = record.get("type") if isinstance(record, dict) else None
            if kind == "flight_header":
                journal.header = record
                journal.headers += 1
            elif kind == "flight":
                journal.queries.append(record)
            elif kind == "flight_update":
                journal.updates.append(record)
            else:
                journal.skipped += 1
    return journal


@dataclass(frozen=True)
class ReplayConfig:
    """Knobs of one replay run (``limit=None``: every recorded query).
    The distance backend is the database's (:func:`journal_backend`)."""

    workers: int = 1
    limit: Optional[int] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise QueryError("workers must be >= 1")
        if self.limit is not None and self.limit < 1:
            raise QueryError("limit must be >= 1")


@dataclass
class ReplayDivergence:
    """One field of one record that replayed differently."""

    seq: Any
    label: str
    fieldname: str
    recorded: Any
    replayed: Any

    def render(self) -> str:
        return (
            f"DIVERGENCE  [{self.label}]  record #{self.seq}: "
            f"{self.fieldname} recorded={self.recorded!r} "
            f"replayed={self.replayed!r}"
        )


@dataclass
class ReplayReport:
    """The verdict of one replay run, with a per-label breakdown."""

    journal_path: str = ""
    backend: str = ""
    workers: int = 1
    queries_replayed: int = 0
    updates_applied: Dict[str, int] = field(default_factory=dict)
    divergences: List[ReplayDivergence] = field(default_factory=list)
    #: label -> {"replayed": n, "diverged": m}
    per_label: Dict[str, Dict[str, int]] = field(default_factory=dict)
    skipped_lines: int = 0
    #: ``key=value`` header entries of retired modes that were ignored.
    ignored_header: List[str] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.divergences

    @property
    def queries_diverged(self) -> int:
        """Replayed queries with at least one divergence."""
        return sum(slot["diverged"] for slot in self.per_label.values())

    def divergences_by_field(self) -> Dict[str, int]:
        """Divergences per compared field, most frequent first."""
        counts = Counter(d.fieldname for d in self.divergences)
        return dict(counts.most_common())

    def _label_slot(self, label: str) -> Dict[str, int]:
        return self.per_label.setdefault(
            label, {"replayed": 0, "diverged": 0}
        )

    def diverge(
        self, seq, label: str, fieldname: str, recorded, replayed
    ) -> None:
        self.divergences.append(ReplayDivergence(
            seq=seq, label=label, fieldname=fieldname,
            recorded=recorded, replayed=replayed,
        ))

    def row(self) -> Dict[str, Any]:
        return {
            "journal": self.journal_path,
            "backend": self.backend,
            "workers": self.workers,
            "queries": self.queries_replayed,
            "updates": sum(self.updates_applied.values()),
            "divergences": len(self.divergences),
            "verdict": "PASS" if self.passed else "FAIL",
            "wall_s": round(self.wall_seconds, 3),
        }

    def render(self) -> str:
        updates = sum(self.updates_applied.values())
        update_mix = ", ".join(
            f"{kind} {count}"
            for kind, count in sorted(self.updates_applied.items())
        ) or "none"
        lines = [
            f"REPLAY  {self.journal_path}  "
            f"(backend={self.backend}, workers={self.workers})",
            f"  {self.queries_replayed} queries re-executed, "
            f"{updates} updates re-applied ({update_mix}) "
            f"in {self.wall_seconds:.3f}s",
        ]
        if self.skipped_lines:
            lines.append(
                f"  warning: {self.skipped_lines} journal line(s) "
                "skipped (malformed or foreign record types)"
            )
        if self.ignored_header:
            lines.append(
                f"  note: journal header names retired modes "
                f"({', '.join(self.ignored_header)}); ignored"
            )
        lines.append("  per plan label:")
        for label in sorted(self.per_label):
            slot = self.per_label[label]
            lines.append(
                f"    {label}: {slot['replayed']} replayed, "
                f"{slot['diverged']} diverged"
            )
        if self.divergences:
            lines.append(
                f"  {self.queries_diverged} of {self.queries_replayed} "
                "queries diverged; divergences by field: "
                + ", ".join(
                    f"{name} {count}"
                    for name, count in self.divergences_by_field().items()
                )
            )
        for divergence in self.divergences[:50]:
            lines.append("  " + divergence.render())
        if len(self.divergences) > 50:
            lines.append(
                f"  ... {len(self.divergences) - 50} more divergences"
            )
        lines.append(
            f"  verdict: "
            + ("PASS — zero divergences" if self.passed else
               f"FAIL — {len(self.divergences)} divergence(s)")
        )
        return "\n".join(lines)

    def summary_record(self) -> Dict[str, Any]:
        return {
            "type": "replay",
            "row": self.row(),
            "per_label": {k: dict(v) for k, v in self.per_label.items()},
            "queries_diverged": self.queries_diverged,
            "divergences_by_field": self.divergences_by_field(),
            "divergences": [
                {
                    "seq": d.seq, "label": d.label, "field": d.fieldname,
                    "recorded": d.recorded, "replayed": d.replayed,
                }
                for d in self.divergences
            ],
        }


def _rebuild_query(record: Dict[str, Any]):
    """Reconstruct the query object from its recorded parameters."""
    params = record["query"]
    position = NetworkPosition(
        params["position"]["edge_id"], params["position"]["offset"]
    )
    terms = frozenset(params["terms"])
    kind = record["kind"]
    if kind == "diversified":
        return DiversifiedSKQuery(
            position=position,
            terms=terms,
            delta_max=params["delta_max"],
            k=params["k"],
            lambda_=params.get("lambda", 0.8),
        )
    if kind == "knn":
        # A record from before kNN became an SK query with a limit.
        return SKQuery(
            position=position,
            terms=terms,
            delta_max=params.get("horizon", 1e9),
            limit=params["k"],
        )
    return SKQuery(
        position=position, terms=terms, delta_max=params["delta_max"],
        limit=params.get("limit"),
    )


def _build_plan(db, index, record: Dict[str, Any]):
    query = _rebuild_query(record)
    kind = record["kind"]
    if kind == "diversified":
        # The same pool meets the same switch, so an "auto" record
        # takes the exit it took live.
        method = record["algorithm"]
        return plan_diversified(
            db, index, query, method=None if method == "auto" else method
        )
    return plan_sk(db, index, query)


def _apply_update(
    db, indexes: Dict[str, Any], record: Dict[str, Any], report: ReplayReport
) -> None:
    """Re-apply one journalled update to the db and every live index."""
    kind = record["kind"]
    targets = tuple(indexes.values())
    if kind == "insert":
        position = NetworkPosition(
            record["position"]["edge_id"], record["position"]["offset"]
        )
        obj = db.insert_object(
            position, frozenset(record.get("terms", ())), indexes=targets
        )
        recorded_id = record.get("object_id")
        if recorded_id is not None and obj.object_id != recorded_id:
            report.diverge(
                f"epoch {record['epoch']}", "journal", "insert_object_id",
                recorded_id, obj.object_id,
            )
    elif kind == "delete":
        db.delete_object(record["object_id"], indexes=targets)
    elif kind == "edge_weight":
        db.update_edge_weight(
            record["edge_id"], record["weight"], indexes=targets
        )
    else:
        raise QueryError(f"unknown journalled update kind {kind!r}")
    report.updates_applied[kind] = report.updates_applied.get(kind, 0) + 1


def _compare(record: Dict[str, Any], result, report: ReplayReport) -> None:
    """Diff one replayed result against its recording."""
    seq = record.get("seq", "?")
    label = record.get("label", "?")
    slot = report._label_slot(label)
    slot["replayed"] += 1
    before = len(report.divergences)
    digest = result_digest(result)
    if digest != record.get("digest"):
        report.diverge(seq, label, "digest", record.get("digest"), digest)
    if len(result) != record.get("results"):
        report.diverge(
            seq, label, "results", record.get("results"), len(result)
        )
    recorded_objective = record.get("objective")
    objective = getattr(result, "objective_value", None)
    if recorded_objective is not None and objective is not None:
        if round(objective, DIGEST_PRECISION) != recorded_objective:
            report.diverge(
                seq, label, "objective",
                recorded_objective, round(objective, DIGEST_PRECISION),
            )
    # Invariant counters: identical answers via different machinery
    # are fine (that is the point of --backend overrides), but the
    # *search shape* must match — across backends too, because backend
    # choice only changes pairwise evaluation, not INE expansion.
    # A recorded result-cache hit did no expansion; skip it.
    recorded_stats = record.get("stats") or {}
    searched = (
        recorded_stats.get("distance_backend") in DISTANCE_BACKENDS
        and getattr(result.stats, "distance_backend", None)
        in DISTANCE_BACKENDS
    )
    if not record.get("result_cache_hit"):
        for name in _INVARIANT_STATS:
            if name in _PAIRWISE_STATS and not searched:
                continue
            recorded = recorded_stats.get(name)
            replayed = getattr(result.stats, name, None)
            if recorded is not None and replayed != recorded:
                report.diverge(seq, label, name, recorded, replayed)
    if len(report.divergences) > before:
        slot["diverged"] += 1


def run_replay(
    db,
    journal: FlightJournal,
    config: ReplayConfig = ReplayConfig(),
    journal_path: str = "",
) -> ReplayReport:
    """Re-execute a parsed journal against ``db``; diff everything.

    ``db`` must be freshly built from the journal header's dataset
    profile (the CLI does this), on :func:`journal_backend` or an
    override.  Queries are grouped by their recorded epoch;
    journalled updates are re-applied between groups so every query
    runs against the same ``data_version`` it was recorded at.  Within
    an epoch group queries execute through
    ``db.engine.execute_many(workers=config.workers)`` — read-only, so
    worker count cannot change answers (and the report will prove it).
    """
    header = journal.header or {}
    ignored = [
        f"{key}={header[key]}" for key in _RETIRED_HEADER_KEYS
        if key in header
    ]
    if header.get("distance_backend") in _RETIRED_BACKENDS:
        ignored.append(f"distance_backend={header['distance_backend']}")
    report = ReplayReport(
        journal_path=journal_path,
        backend=db.distance_backend,
        workers=config.workers,
        skipped_lines=journal.skipped,
        ignored_header=ignored,
    )
    started = time.perf_counter()
    queries = journal.queries
    if config.limit is not None:
        queries = queries[:config.limit]
    updates = sorted(journal.updates, key=lambda r: r["epoch"])

    # Group query records by recorded epoch, preserving journal order
    # within each group.
    groups: Dict[int, List[Dict[str, Any]]] = {}
    for record in queries:
        groups.setdefault(record.get("epoch", 0), []).append(record)

    indexes: Dict[str, Any] = {}

    def index_for(name: str):
        if name not in indexes:
            kind = INDEX_KIND_BY_NAME.get(name)
            if kind is None:
                raise QueryError(
                    f"journal names unknown index {name!r}; "
                    f"expected one of {sorted(INDEX_KIND_BY_NAME)}"
                )
            indexes[name] = db.build_index(kind)
        return indexes[name]

    # Build every index the journal mentions *before* replaying any
    # update: recorded updates were applied to live indexes, so the
    # rebuilt ones must see the same maintenance stream.
    for record in queries:
        index_for(record["index"])

    cursor = 0
    for epoch in sorted(groups):
        while cursor < len(updates) and updates[cursor]["epoch"] <= epoch:
            _apply_update(db, indexes, updates[cursor], report)
            cursor += 1
        if db.data_version != epoch:
            report.diverge(
                f"epoch group {epoch}", "journal", "data_version",
                epoch, db.data_version,
            )
        group = groups[epoch]
        plans = [
            _build_plan(db, index_for(record["index"]), record)
            for record in group
        ]
        results = db.engine.execute_many(plans, workers=config.workers)
        for record, result in zip(group, results):
            _compare(record, result, report)
            report.queries_replayed += 1
    # Trailing updates (after the last recorded query) still replay, so
    # the journal's full update stream is validated.
    while cursor < len(updates):
        _apply_update(db, indexes, updates[cursor], report)
        cursor += 1
    report.wall_seconds = time.perf_counter() - started
    db.metrics.emit(report.summary_record())
    return report
