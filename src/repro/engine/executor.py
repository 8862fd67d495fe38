"""The query executor: runs :class:`~repro.engine.plan.QueryPlan`\\ s.

:class:`QueryEngine` is the single place query algorithms are invoked.
``execute`` opens an :class:`~repro.engine.context.ExecutionContext`
(per-query counters, I/O scope, per-query tracer), dispatches on the
plan's ``kind``/``algorithm``, finalises the stats and publishes the
finished (or failed) query, once, as a
:class:`~repro.obs.events.QueryEvent` to the database's subscribers —
the metrics registry, and whichever of the sliding-window rollup, the
slow-query log and the flight recorder are installed.

``execute_many`` runs a batch — serially, or on a thread pool.  The
concurrency contract:

* Index structures are read-only during queries; each query's load
  counters are its context's, passed to the expansion as an argument.
* The disk layer (buffer pool, I/O stats) is lock-protected; each
  query gets its *own* ``PairwiseDistanceComputer``
  (``Database.pairwise_computer``), whose node maps die with it.
* Tracing is concurrency-native: with tracing on, each execution
  context builds its own bounded :class:`~repro.obs.tracing.Tracer`
  and the finished root span rides the query's event, so a traced
  ``execute_many(workers=N)`` yields one independent tree per query.

CPython's GIL serialises the pure-Python compute, so wall-clock
speedup from ``workers > 1`` comes from overlapping *waits*.  The
simulated disk only counts pages (``physical_reads``); with
``io_wait_latency`` set the engine sleeps that many seconds per page
read after each query (releasing the GIL), which is the disk-resident
deployment the paper models.  Concurrent workers overlap those stalls
exactly as real outstanding I/O would.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from itertools import islice
from typing import TYPE_CHECKING, Iterable, List, Optional

from ..core.diversified_search import diversified_search
from ..core.ine import INEExpansion
from ..core.queries import QueryStats, SKResult
from ..errors import QueryError
from ..obs.events import QueryEvent
from .context import ExecutionContext

if TYPE_CHECKING:  # pragma: no cover — import cycle guard
    from ..core.database import Database
    from .plan import QueryPlan

__all__ = ["QueryEngine"]


class QueryEngine:
    """Executes query plans against one database.

    ``io_wait_latency`` (seconds per physical page read, default 0:
    disabled) turns the simulated disk's page count into a real
    per-query stall, served *after* the compute with the GIL
    released — see the module docstring.  The sleep is excluded from
    ``stats.wall_seconds`` (which keeps measuring compute) but is part
    of the batch wall clock that ``execute_many`` callers observe.
    """

    def __init__(
        self, db: "Database", io_wait_latency: float = 0.0
    ) -> None:
        if io_wait_latency < 0:
            raise ValueError("io_wait_latency must be non-negative")
        self.db = db
        self.io_wait_latency = io_wait_latency

    # ------------------------------------------------------------------
    # Single-plan execution
    # ------------------------------------------------------------------
    def execute(self, plan: "QueryPlan", tracer=None, sequence=None):
        """Run one plan; returns the kind-specific result object.

        ``tracer`` overrides the per-query tracer for this execution
        only (``repro explain`` uses this to trace one query without
        touching global state).

        ``sequence`` is the query's index within its batch, when the
        caller knows it.  It gives the query a dispatch-order-free
        identity: the flight recorder stamps it into the captured
        record, so replay aligns a ``--workers N`` run on it.
        """
        ctx = ExecutionContext(self.db, plan, tracer)
        result = error = None
        try:
            with ctx:
                if plan.kind == "sk":
                    result = self._execute_sk(plan, ctx)
                elif plan.kind == "diversified":
                    result = self._execute_diversified(plan, ctx)
                else:  # pragma: no cover — QueryPlan validates kind
                    raise QueryError(f"unknown plan kind {plan.kind!r}")
        except Exception as exc:  # noqa: BLE001 — published, then re-raised
            error, result = exc, None
        # The one place a query is told to the world.  The context has
        # closed, so the stats are final and the span tree complete.
        self.db.publish(QueryEvent(
            plan, result, error, sequence, ctx.tracer.last_trace
        ))
        if error is not None:
            raise error
        self._io_wait(result.stats)
        return result

    def _execute_sk(self, plan: "QueryPlan", ctx: ExecutionContext) -> SKResult:
        db = self.db
        query = plan.query
        t = ctx.tracer
        start = time.perf_counter()
        with t.span(
            "query.sk", index=plan.index.name,
            terms=sorted(query.terms), delta_max=query.delta_max,
        ) as root:
            expansion = INEExpansion(
                db.ccam, db.network, plan.index, query.position,
                query.terms, query.delta_max, ctx.counters, t,
            )
            if query.limit is None:
                items = expansion.run_to_completion()
            else:
                # Closing the stream at the limit-th arrival stops the
                # expansion at the node whose settling finalised it.
                stream = expansion.run()
                items = list(islice(stream, query.limit))
                stream.close()
            wall = time.perf_counter() - start
            if t.enabled:
                ctx.trace_signature_summary(len(items))
                root.set(
                    candidates=len(items), results=len(items),
                    nodes_accessed=expansion.stats.nodes_accessed,
                    edges_accessed=expansion.stats.edges_accessed,
                    wall_seconds=wall,
                )
                if query.limit is not None:
                    root.set(limit=query.limit)
        stats = QueryStats(
            wall_seconds=wall,
            nodes_accessed=expansion.stats.nodes_accessed,
            edges_accessed=expansion.stats.edges_accessed,
            candidates=len(items),
            stage_seconds={
                "expansion": wall,
                "object_loading": expansion.stats.load_seconds,
            },
            distance_backend=db.distance_backend,
        )
        ctx.finalise(stats)
        return SKResult(items, stats)

    def _execute_diversified(self, plan: "QueryPlan", ctx: ExecutionContext):
        db = self.db
        query = plan.query
        t = ctx.tracer
        pairwise = db.pairwise_computer(query.delta_max, t)
        with t.span(
            "query.diversified", index=plan.index.name,
            terms=sorted(query.terms),
            delta_max=query.delta_max, k=query.k,
            lambda_=query.lambda_, backend=pairwise.backend_name,
        ) as root:
            result = diversified_search(
                db.ccam, db.network, plan.index, query, plan.algorithm,
                pairwise, plan.enable_pruning, t, ctx.counters,
            )
            if t.enabled:
                ctx.trace_signature_summary(len(result))
                root.set(
                    method=result.method,
                    candidates=result.stats.candidates,
                    results=len(result),
                    objective_value=result.objective_value,
                    wall_seconds=result.stats.wall_seconds,
                    pairwise_dijkstras=result.stats.pairwise_dijkstras,
                    distance_cache_hits=result.stats.distance_cache_hits,
                    terminated_early=(
                        result.stats.expansion_terminated_early
                    ),
                )
        ctx.finalise(result.stats)
        return result

    def _io_wait(self, stats: Optional[QueryStats]) -> None:
        if not self.io_wait_latency or stats is None or stats.io is None:
            return
        stall = stats.io.physical_reads * self.io_wait_latency
        if stall > 0:
            time.sleep(stall)

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------
    def execute_many(
        self, plans: Iterable["QueryPlan"], workers: int = 1
    ) -> List:
        """Run a batch of plans; results come back in plan order.

        ``workers > 1`` executes on a thread pool.  Results, metrics
        aggregates and lifetime counters are identical to a serial run
        (per-execution state is context-owned; merges are locked); only
        sink-record *order* may differ.  Tracing composes with
        concurrency: each query's context builds its own tracer, so a
        traced batch yields one span tree per query regardless of the
        worker count.
        """
        if workers < 1:
            raise QueryError("workers must be >= 1")
        plans = list(plans)
        # Every plan carries its batch index: a flight record's
        # ``sequence`` is then a function of the batch position,
        # identical between serial, concurrent and replayed runs.
        if workers == 1 or len(plans) <= 1:
            return [
                self.execute(plan, sequence=i)
                for i, plan in enumerate(plans)
            ]
        with ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-query"
        ) as pool:
            return list(pool.map(
                lambda pair: self.execute(pair[1], sequence=pair[0]),
                enumerate(plans),
            ))
