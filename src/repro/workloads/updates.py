"""Mixed update + query workloads for the dynamic-database story.

A *mixed* workload interleaves batches of diversified queries with
batches of updates (object inserts, object deletes, edge reweights)
against a live database.  Queries inside a batch may run concurrently
(``workers > 1`` — the engine's standing contract); **updates are
applied serially between query batches**, never concurrently with
queries: the update paths mutate the graph, the CCAM pages and the
index trees in place, and the concurrency contract for queries is
read-only index structures.  Each query pins the epoch it executed
against; no answer or pairwise node map outlives its query, so nothing
cached has to be kept honest across the query/update boundary.

Update generation mirrors :mod:`repro.workloads.queries`: inserts draw
their location and keywords from existing objects (so new objects land
where queries look and carry queryable terms), deletes pick live
object ids, reweights scale a random edge's weight by a factor from
``weight_factor_range``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.database import Database
from ..core.queries import DiversifiedSKQuery
from ..engine.plan import plan_diversified
from ..errors import QueryError
from ..index.base import ObjectIndex
from ..network.graph import NetworkPosition
from .runner import WorkloadReport, _check_workers

__all__ = [
    "UpdateWorkloadConfig",
    "UpdateWorkloadReport",
    "generate_update_ops",
    "run_update_workload",
]


@dataclass(frozen=True)
class UpdateWorkloadConfig:
    """Knobs of one mixed update/query workload."""

    #: Updates applied between consecutive query batches.
    updates_per_batch: int = 20
    #: Query batches (updates run between them, so ``num_batches - 1``
    #: update rounds fire for ``num_batches`` query rounds).
    num_batches: int = 4
    #: Mix of update kinds; need not be normalised.
    insert_weight: float = 0.4
    delete_weight: float = 0.4
    edge_weight_weight: float = 0.2
    #: Reweight factor drawn log-uniformly from this range.
    weight_factor_range: Tuple[float, float] = (0.5, 2.0)
    seed: int = 202

    def __post_init__(self) -> None:
        if self.updates_per_batch < 0:
            raise QueryError("updates_per_batch must be non-negative")
        if self.num_batches <= 0:
            raise QueryError("num_batches must be positive")
        total = self.insert_weight + self.delete_weight + self.edge_weight_weight
        if total <= 0:
            raise QueryError("at least one update-kind weight must be positive")
        lo, hi = self.weight_factor_range
        if lo <= 0 or hi < lo:
            raise QueryError("weight_factor_range must be 0 < lo <= hi")


@dataclass
class UpdateWorkloadReport:
    """Query aggregates plus the update side of a mixed run."""

    query_report: WorkloadReport
    updates_applied: Dict[str, int] = field(default_factory=dict)
    update_seconds: float = 0.0
    #: ``data_version`` after the final batch.
    final_epoch: int = 0

    def row(self) -> dict:
        row = self.query_report.row()
        row["updates"] = sum(self.updates_applied.values())
        for kind, count in sorted(self.updates_applied.items()):
            row[f"updates_{kind}"] = count
        row["update_ms"] = round(self.update_seconds * 1e3, 3)
        row["epoch"] = self.final_epoch
        return row

    def summary_record(self) -> dict:
        record = self.query_report.summary_record()
        record["type"] = "update_workload"
        record["updates_applied"] = dict(self.updates_applied)
        record["update_seconds"] = self.update_seconds
        record["final_epoch"] = self.final_epoch
        return record


def generate_update_ops(
    db: Database, config: UpdateWorkloadConfig, count: int, rng
) -> List[Tuple[str, tuple]]:
    """``count`` update operations as ``(kind, args)`` descriptors.

    Descriptors are resolved *lazily by kind* against the live database
    when applied — a delete picks its victim at apply time, so earlier
    deletes in the same run can't invalidate it.
    """
    kinds = ["insert", "delete", "edge_weight"]
    weights = np.array(
        [config.insert_weight, config.delete_weight, config.edge_weight_weight],
        dtype=np.float64,
    )
    weights /= weights.sum()
    return [
        (kinds[int(rng.choice(3, p=weights))], ())
        for _ in range(count)
    ]


def _on_edge_now(
    db: Database, query: DiversifiedSKQuery, born: Dict[int, float]
) -> DiversifiedSKQuery:
    """``query`` at the same fraction along its edge after reweights."""
    edge_id, offset = query.position.edge_id, query.position.offset
    weight = db.network.edge(edge_id).weight
    if weight == born[edge_id]:
        return query
    offset = min(offset * weight / born[edge_id], weight)
    return replace(query, position=NetworkPosition(edge_id, offset))


def _apply_update(
    db: Database,
    index: ObjectIndex,
    kind: str,
    rng,
    config: UpdateWorkloadConfig,
    edge_ids: Sequence[int],
) -> Optional[str]:
    """Apply one update of ``kind``; returns the kind applied or None."""
    if kind == "insert":
        objects = list(db.store)
        if not objects:
            return None
        donor = objects[int(rng.integers(0, len(objects)))]
        keyword_donor = objects[int(rng.integers(0, len(objects)))]
        db.insert_object(
            donor.position, keyword_donor.keywords, indexes=(index,)
        )
        return "insert"
    if kind == "delete":
        objects = list(db.store)
        if not objects:
            return None
        victim = objects[int(rng.integers(0, len(objects)))]
        db.delete_object(victim.object_id, indexes=(index,))
        return "delete"
    # edge_weight
    edge_id = edge_ids[int(rng.integers(0, len(edge_ids)))]
    lo, hi = config.weight_factor_range
    factor = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
    old = db.network.edge(edge_id)
    db.update_edge_weight(edge_id, old.weight * factor, indexes=(index,))
    return "edge_weight"


def run_update_workload(
    db: Database,
    index: ObjectIndex,
    queries: Sequence[DiversifiedSKQuery],
    config: UpdateWorkloadConfig,
    method: str = "seq",
    label: str = "",
    workers: int = 1,
) -> UpdateWorkloadReport:
    """Interleave query batches with update batches.

    The queries are split into ``config.num_batches`` contiguous
    batches; after every batch except the last,
    ``config.updates_per_batch`` updates are applied serially.  Query
    batches honour ``workers`` exactly like
    :func:`~repro.workloads.runner.run_diversified_workload`; the
    serial update window between batches is the documented concurrency
    contract for mutation.
    """
    _check_workers(workers)
    query_report = WorkloadReport(
        label=label or f"update/{method.upper()}/{index.name}"
    )
    rng = np.random.default_rng(config.seed)
    edge_ids = [edge.edge_id for edge in db.network.edges()]
    applied: Dict[str, int] = {}
    update_seconds = 0.0

    queries = list(queries)
    batches: List[List[DiversifiedSKQuery]] = []
    size = max(1, (len(queries) + config.num_batches - 1) // config.num_batches)
    for start in range(0, len(queries), size):
        batches.append(queries[start : start + size])

    # Queries are drawn before any update: each keeps the weight its edge
    # had then, so a reweight moves it along as it moves the objects.
    born = {q.position.edge_id: db.network.edge(q.position.edge_id).weight
            for q in queries}

    t0 = time.perf_counter()
    for batch_no, batch in enumerate(batches):
        plans = [
            plan_diversified(db, index, _on_edge_now(db, q, born), method=method)
            for q in batch
        ]
        results = db.engine.execute_many(plans, workers=workers)
        for result in results:
            query_report.record(result.stats, len(result))
        if batch_no == len(batches) - 1:
            break
        ops = generate_update_ops(db, config, config.updates_per_batch, rng)
        u0 = time.perf_counter()
        for kind, _args in ops:
            done = _apply_update(db, index, kind, rng, config, edge_ids)
            if done is not None:
                applied[done] = applied.get(done, 0) + 1
        update_seconds += time.perf_counter() - u0
    query_report.wall_clock_seconds = time.perf_counter() - t0
    query_report.workers = workers

    report = UpdateWorkloadReport(
        query_report=query_report,
        updates_applied=applied,
        update_seconds=update_seconds,
        final_epoch=db.data_version,
    )
    db.metrics.emit(report.summary_record())
    return report
