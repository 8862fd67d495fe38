"""Per-execution state: everything one running query mutates.

Historically each query diffed *shared* lifetime counters (index load
counters, the disk's I/O totals, the buffer pool's eviction count)
against a snapshot taken at query start.  That breaks the moment two
queries run concurrently — both diffs see each other's work.

:class:`ExecutionContext` inverts the ownership: the context owns a
fresh :class:`~repro.index.base.LoadCounters`, a per-thread I/O scope
and a per-thread buffer-eviction scope for the duration of one query,
and the shared structures *route* this thread's updates into them
(:meth:`ObjectIndex.begin_execution`, :meth:`IOStats.scoped`,
:meth:`BufferPool.eviction_scope`).  Index and storage objects are
never mutated by a query beyond those thread-local slots, which is
what makes ``QueryEngine.execute_many(workers=N)`` sound.

On exit the per-execution counters are folded into the lifetime totals
under their owners' locks, so ``index.lifetime_counters`` and
``disk.stats`` stay exact across any interleaving.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..index.base import LoadCounters
from ..obs.tracing import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover — import cycle guard
    from ..core.database import Database
    from ..core.queries import QueryStats
    from .plan import QueryPlan

__all__ = ["ExecutionContext"]


class ExecutionContext:
    """All mutable state of one query execution, as a context manager.

    Inside the ``with`` block the plan's index routes its counter
    updates and tracer lookups to this context (on this thread only),
    the disk's I/O statistics collect into :attr:`io_scope` and buffer
    evictions triggered by this thread into :attr:`buffer_scope`.
    Call :meth:`finalise` on the query's stats *before* leaving the
    block; afterwards every number it filled in is a true per-query
    value, no shared-counter diffing involved.
    """

    def __init__(
        self,
        db: "Database",
        plan: "QueryPlan",
        tracer=None,
    ) -> None:
        self.db = db
        self.plan = plan
        bounds = db.trace_bounds
        if tracer is not None:
            # Explicit override (EXPLAIN): trace this query whether or
            # not tracing is on for the database.
            self.tracer = tracer
        elif bounds is not None:
            # Tracing is on: this query gets its *own* bounded span
            # tree, whose root rides the query's event.  Per-query
            # ownership is what makes execute_many(workers=N) with
            # tracing sound — span stacks never cross threads.
            self.tracer = Tracer(**bounds)
        else:
            self.tracer = NULL_TRACER
        #: Data epoch this execution is pinned to, sampled once at
        #: context creation and stamped on the query's stats (a flight
        #: record carries it, so replay restores the data state the
        #: query saw).
        self.epoch = db.data_version
        #: Fresh per-execution index load counters; merged into the
        #: index's lifetime counters when the context closes.
        self.counters = LoadCounters()
        self.io_scope = None
        self.buffer_scope = None
        self._io_cm = None
        self._buffer_cm = None

    def __enter__(self) -> "ExecutionContext":
        self.plan.index.begin_execution(self.counters, self.tracer)
        try:
            self._io_cm = self.db.disk.stats.scoped()
            self.io_scope = self._io_cm.__enter__()
            self._buffer_cm = self.db.disk.buffer.eviction_scope()
            self.buffer_scope = self._buffer_cm.__enter__()
        except BaseException:
            self.plan.index.end_execution()
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        try:
            if self._buffer_cm is not None:
                self._buffer_cm.__exit__(exc_type, exc, tb)
        finally:
            try:
                if self._io_cm is not None:
                    self._io_cm.__exit__(exc_type, exc, tb)
            finally:
                self.plan.index.end_execution()
        return False

    def finalise(self, stats: "QueryStats") -> None:
        """Fill a query's stats from this context's collected state.

        Must run inside the ``with`` block (the I/O scope is still
        live).  Sets the I/O snapshot, buffer evictions, index-side
        object-loading counters and the ``signature`` stage time —
        everything that used to come from shared-counter diffs.
        """
        if self.io_scope is None:
            raise RuntimeError("finalise() outside the execution context")
        stats.io = self.io_scope.snapshot()
        stats.epoch = self.epoch
        stats.buffer_evictions = self.buffer_scope.evictions
        stats.objects_loaded = self.counters.objects_loaded
        stats.false_hit_objects = self.counters.false_hit_objects
        stats.stage_seconds["signature"] = self.counters.signature_seconds

    def trace_signature_summary(self, results: int) -> None:
        """Attach the per-query ``signature.filter`` summary span.

        Reads this execution's own counters directly — under the
        context they *are* the per-query deltas — split by index
        family via the ``partition`` attribute, which is what makes
        the SIF vs SIF-P comparison visible per query.
        """
        c = self.counters
        self.tracer.add_span(
            "signature.filter",
            c.signature_seconds,
            partition=self.plan.index.name,
            edges_pruned=c.edges_pruned_by_signature,
            edges_probed=c.edges_probed,
            tests_run=c.signature_tests_run,
            tests_pruned=c.signature_tests_pruned,
            candidates_tested=c.objects_loaded,
            false_positives=c.false_hit_objects,
            results=results,
        )
