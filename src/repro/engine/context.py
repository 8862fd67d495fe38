"""Per-execution state: everything one running query mutates.

:class:`ExecutionContext` is the one owner of a query's counters: a
fresh :class:`~repro.index.base.LoadCounters`, which the executor hands
to the expansion as an argument, and a per-thread I/O scope
(:meth:`IOStats.scoped`) that logs the query's page reads.  Index and
storage objects are never mutated by a query beyond those, which is
what makes ``QueryEngine.execute_many(workers=N)`` sound.  On exit both
are folded into the lifetime totals under their owners' locks, so
``index.lifetime_counters`` and ``disk.stats`` stay exact across any
interleaving.

The scope's log settles against the buffer pool in one pass, under one
lock, when its counters are read — :attr:`ExecutionContext.io_scope`
and :meth:`ExecutionContext.finalise` settle it first — or when the
context closes, also when the query raises.  So the settle is timed in
the executor's own frame, not in the expansion that made the reads.
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

    Inside the ``with`` block the disk's page reads collect into
    :attr:`io_scope`; the executor passes :attr:`counters` and
    :attr:`tracer` to the query's expansion.  Call :meth:`finalise` on
    the query's stats *before* leaving the block; afterwards every
    number it filled in is a true per-query value, no shared-counter
    diffing involved.
    """

    def __init__(
        self,
        db: "Database",
        plan: "QueryPlan",
        tracer=None,
    ) -> None:
        self.db = db
        self.plan = plan
        if tracer is not None:
            # Explicit override (EXPLAIN): trace this query whether or
            # not tracing is on for the database.
            self.tracer = tracer
        elif db.tracing:
            # Tracing is on: this query gets its *own* bounded span
            # tree, whose root rides the query's event.  Per-query
            # ownership is what makes execute_many(workers=N) with
            # tracing sound — span stacks never cross threads.
            self.tracer = Tracer()
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
        self._io = None
        self._io_cm = None

    @property
    def io_scope(self):
        """This execution's I/O scope, settled: its counters include
        every page read so far (``None`` before the block opens)."""
        return None if self._io is None else self._io.settle()

    def __enter__(self) -> "ExecutionContext":
        self._io_cm = self.db.disk.stats.scoped()
        self._io = self._io_cm.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        try:
            self._io_cm.__exit__(exc_type, exc, tb)
        finally:
            self.plan.index.merge_counters(self.counters)
        return False

    def finalise(self, stats: "QueryStats") -> None:
        """Fill a query's stats from this context's collected state.

        Must run inside the ``with`` block (the I/O scope is still
        live).  Sets the I/O snapshot, buffer evictions, index-side
        object-loading counters and the ``signature`` stage time —
        everything that used to come from shared-counter diffs.
        """
        io = self.io_scope
        if io is None:
            raise RuntimeError("finalise() outside the execution context")
        stats.io = io.snapshot()
        stats.epoch = self.epoch
        stats.buffer_evictions = io.evictions
        stats.objects_loaded = self.counters.objects_loaded
        stats.false_hit_objects = self.counters.false_hit_objects
        stats.stage_seconds["signature"] = self.counters.signature_seconds

    def trace_signature_summary(self, results: int) -> None:
        """Attach the per-query ``signature.filter`` summary span.

        Reads this execution's own counters — they *are* the per-query
        values — split by index family via the ``partition`` attribute,
        which is what makes the SIF vs SIF-P comparison visible per
        query.
        """
        c = self.counters
        self.tracer.add_span(
            "signature.filter",
            c.signature_seconds,
            partition=self.plan.index.name,
            edges_pruned=c.edges_pruned_by_signature,
            edges_probed=c.edges_probed,
            tests_run=c.signature_tests_run,
            candidates_tested=c.objects_loaded,
            false_positives=c.false_hit_objects,
            results=results,
        )
