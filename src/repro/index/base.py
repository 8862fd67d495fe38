"""Common interface of the spatio-textual object indexes.

Algorithm 3 (the SK search) is index-agnostic: whenever the network
expansion reaches an edge for the first time it asks the object index
for the objects on that edge satisfying the keyword constraint
(Algorithm 2, ``LoadObjects``).  The four indexes of the paper — IR,
IF, SIF, SIF-P (plus the SIF-G comparison point of Fig. 9) — differ
only in how much I/O that call costs and how many irrelevant objects it
loads.
"""

from __future__ import annotations

import abc
import threading
from dataclasses import dataclass
from typing import Callable, FrozenSet, List, Optional, Sequence

from ..network.objects import ObjectStore, SpatioTextualObject
from ..obs.tracing import NULL_TRACER

__all__ = ["LoadCounters", "ObjectIndex"]


@dataclass
class LoadCounters:
    """Per-query counters maintained by every index.

    ``objects_loaded`` counts object postings fetched from disk;
    ``false_hit_objects`` counts the subset fetched for edges (or
    virtual edges) that produced no result — the quantity Fig. 9 plots.
    """

    edges_probed: int = 0
    edges_pruned_by_signature: int = 0
    objects_loaded: int = 0
    false_hits: int = 0
    false_hit_objects: int = 0
    results_returned: int = 0
    #: AND-semantics signature tests run / tests that pruned their
    #: edge.  These live here (not on the shared SignatureFile) so
    #: concurrent queries under ``execute_many(workers=N)`` each count
    #: into their own per-query slot and the lifetime totals absorb
    #: exact deltas under the merge lock.
    signature_tests_run: int = 0
    signature_tests_pruned: int = 0
    #: Wall seconds spent building the query's signature guard — the
    #: AND of its signed rows, once per :meth:`ObjectIndex.loader`
    #: (SIF / SIF-P / SIF-G); the per-edge test is one shift and is
    #: not timed.  Sampled as per-query deltas by the metrics layer.
    signature_seconds: float = 0.0

    def reset(self) -> None:
        self.edges_probed = 0
        self.edges_pruned_by_signature = 0
        self.objects_loaded = 0
        self.false_hits = 0
        self.false_hit_objects = 0
        self.results_returned = 0
        self.signature_tests_run = 0
        self.signature_tests_pruned = 0
        self.signature_seconds = 0.0

    def absorb(self, other: "LoadCounters") -> None:
        """Add another counter set's values into this one."""
        self.edges_probed += other.edges_probed
        self.edges_pruned_by_signature += other.edges_pruned_by_signature
        self.objects_loaded += other.objects_loaded
        self.false_hits += other.false_hits
        self.false_hit_objects += other.false_hit_objects
        self.results_returned += other.results_returned
        self.signature_tests_run += other.signature_tests_run
        self.signature_tests_pruned += other.signature_tests_pruned
        self.signature_seconds += other.signature_seconds


class ObjectIndex(abc.ABC):
    """Access path from an edge id to its matching objects.

    Concurrency contract: an index is **read-only during queries**.
    Per-query load counters and the active tracer live in a per-thread
    execution slot installed by
    :class:`~repro.engine.context.ExecutionContext`
    (:meth:`begin_execution` / :meth:`end_execution`), so concurrent
    queries on different threads never write into each other's stats.
    The index's only persistent mutable state — the lifetime counter
    totals — is updated once per query, at :meth:`end_execution`, under
    a lock.
    """

    #: Short name used in reports ("IR", "IF", "SIF", "SIF-P", "SIF-G").
    name: str = "?"

    def __init__(self, store: ObjectStore) -> None:
        self._store = store
        #: Lifetime counter totals, visible whenever no per-query
        #: execution slot is active on the calling thread.
        self._lifetime_counters = LoadCounters()
        self._default_tracer = NULL_TRACER
        #: An inner index (SIF's inverted file) forwards its counters
        #: and tracer to the composite that owns it; see
        #: :meth:`share_stats_with`.
        self._stats_parent: Optional["ObjectIndex"] = None
        self._execution_slots = threading.local()
        self._merge_lock = threading.Lock()
        #: Wall-clock seconds spent building the index.
        self.build_seconds: float = 0.0

    @property
    def store(self) -> ObjectStore:
        return self._store

    # ------------------------------------------------------------------
    # Per-execution stats routing
    # ------------------------------------------------------------------
    @property
    def counters(self) -> LoadCounters:
        """The counter set writes should land in *right now*.

        Inside a query this is the executing context's per-query
        counters (installed per thread); outside it is the lifetime
        totals, which accumulate one query's deltas at a time.
        """
        parent = self._stats_parent
        if parent is not None:
            return parent.counters
        stack = getattr(self._execution_slots, "stack", None)
        if stack:
            return stack[-1][0]
        return self._lifetime_counters

    @property
    def lifetime_counters(self) -> LoadCounters:
        """The persistent totals, regardless of any active execution."""
        parent = self._stats_parent
        if parent is not None:
            return parent.lifetime_counters
        return self._lifetime_counters

    @property
    def tracer(self):
        """Tracer for per-edge pruning events.

        Resolves to the executing context's tracer while a query is
        active on this thread; otherwise to the default (assignable,
        normally :data:`~repro.obs.tracing.NULL_TRACER`)."""
        parent = self._stats_parent
        if parent is not None:
            return parent.tracer
        stack = getattr(self._execution_slots, "stack", None)
        if stack:
            return stack[-1][1]
        return self._default_tracer

    @tracer.setter
    def tracer(self, tracer) -> None:
        self._default_tracer = tracer

    def share_stats_with(self, parent: "ObjectIndex") -> None:
        """Forward this index's counters/tracer to ``parent``.

        Composite indexes (SIF wrapping an inverted file) call this so
        the inner index's loads surface on the composite — including
        inside per-query execution slots, which only the composite
        manages."""
        self._stats_parent = parent

    def begin_execution(self, counters: LoadCounters, tracer) -> None:
        """Install a per-query stats slot for the calling thread.

        Paired with :meth:`end_execution`; slots nest per thread, so a
        query that re-enters the index (kNN's radius-doubling rounds)
        keeps one slot throughout."""
        stack = getattr(self._execution_slots, "stack", None)
        if stack is None:
            stack = self._execution_slots.stack = []
        stack.append((counters, tracer))

    def end_execution(self) -> None:
        """Retire the calling thread's slot, folding its per-query
        counter deltas into the lifetime totals (lock-protected)."""
        stack = getattr(self._execution_slots, "stack", None)
        if not stack:
            return
        counters, _tracer = stack.pop()
        with self._merge_lock:
            self._lifetime_counters.absorb(counters)

    @abc.abstractmethod
    def load_objects(
        self, edge_id: int, terms: FrozenSet[str]
    ) -> List[SpatioTextualObject]:
        """Algorithm 2: objects on ``edge_id`` containing *all* ``terms``.

        Implementations charge their I/O to the shared disk manager and
        update :attr:`counters`.
        """

    def loader(
        self, terms: FrozenSet[str]
    ) -> Callable[[int], List[SpatioTextualObject]]:
        """The per-query half of Algorithm 2: ``load_objects`` with
        ``terms`` applied.

        An expansion binds one when it starts, on the executing thread
        and inside its execution slot, and drops it when it ends.  The
        signature indexes override this to resolve here what is constant
        for the query (counters, tracer, the AND of the signed rows), so
        a loader is never kept across queries or updates.
        """
        load_objects = self.load_objects
        return lambda edge_id: load_objects(edge_id, terms)

    @abc.abstractmethod
    def size_bytes(self) -> int:
        """Total on-disk size of the index (pages plus signatures)."""

    def describe(self) -> str:
        return f"{self.name} ({self.size_bytes() / 1024:.0f} KiB)"

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _filter_and(
        objects: Sequence[SpatioTextualObject], terms: FrozenSet[str]
    ) -> List[SpatioTextualObject]:
        return [o for o in objects if o.contains_all(terms)]
