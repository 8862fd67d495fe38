"""Common interface of the spatio-textual object indexes.

Algorithm 3 (the SK search) is index-agnostic: whenever the network
expansion reaches an edge for the first time it asks the object index
for the objects on that edge satisfying the keyword constraint
(Algorithm 2, ``LoadObjects``).  The four indexes of the paper — IR,
IF, SIF, SIF-P (plus the SIF-G comparison point of Fig. 9) — differ
only in how much I/O that call costs and how many irrelevant objects it
loads.  Every call counts into the :class:`LoadCounters` its caller
passes — a query's own, or the index's lifetime totals.
"""

from __future__ import annotations

import abc
import threading
from dataclasses import dataclass
from typing import Callable, Collection, FrozenSet, List, Optional

from ..network.objects import ObjectStore, SpatioTextualObject
from ..obs.tracing import NULL_TRACER

__all__ = ["GuardedLoader", "LoadCounters", "ObjectIndex", "offset_of"]


def offset_of(obj: SpatioTextualObject) -> float:
    """Sort key of a loader's answer: the object's offset on its edge."""
    return obj.position.offset


@dataclass
class LoadCounters:
    """Per-query counters every index's loads count into.

    ``objects_loaded`` counts object postings fetched from disk;
    ``false_hit_objects`` counts the subset fetched for edges (or
    virtual edges) that produced no result — the quantity Fig. 9 plots.
    """

    edges_probed: int = 0
    #: AND-semantics signature tests that pruned their edge.
    edges_pruned_by_signature: int = 0
    objects_loaded: int = 0
    false_hit_objects: int = 0
    #: AND-semantics signature tests run.  These live here (not on the
    #: shared SignatureFile) so concurrent queries under
    #: ``execute_many(workers=N)`` each count into their own counters.
    signature_tests_run: int = 0
    #: Wall seconds spent building the query's signature guard — the
    #: AND of its signed rows, once per :meth:`ObjectIndex.loader`
    #: (SIF / SIF-P / SIF-G); the per-edge test is one shift and is
    #: not timed.  Sampled as per-query deltas by the metrics layer.
    signature_seconds: float = 0.0

    def count_load(self, loaded: int, matches: Collection) -> None:
        """Count ``loaded`` postings (or object records) read for one
        edge or virtual edge: all of them false hits when ``matches``,
        what the edge gave, is empty."""
        self.objects_loaded += loaded
        if loaded and not matches:
            self.false_hit_objects += loaded

    def absorb(self, other: "LoadCounters") -> None:
        """Add another counter set's values into this one."""
        self.edges_probed += other.edges_probed
        self.edges_pruned_by_signature += other.edges_pruned_by_signature
        self.objects_loaded += other.objects_loaded
        self.false_hit_objects += other.false_hit_objects
        self.signature_tests_run += other.signature_tests_run
        self.signature_seconds += other.signature_seconds


class GuardedLoader:
    """The per-query loader of a one-bit signature index (SIF, SIF-G).

    Calling it is Algorithm 2 for one edge, as any loader's call is:
    the signature test ``edge_id >= 0 and (mask >> edge_id) & 1``, then
    ``fetch(edge_id)`` for an edge that passes.  ``mask`` is the AND of
    the query's signed rows, built once per query; ``None`` means every
    query term is unsigned, so every edge passes.

    An expansion that finds this type runs the test itself, inline, and
    calls ``fetch`` only for edges that pass.  It then owes what a call
    would have done for the edges it tested: :meth:`count` the tests
    and prunes, and record one ``signature.prune`` event per pruned
    edge, tagged ``partition``, when tracing.
    """

    __slots__ = ("mask", "fetch", "counters", "tracer", "partition")

    def __init__(
        self,
        mask: Optional[int],
        fetch: Callable[[int], List[SpatioTextualObject]],
        counters: LoadCounters,
        tracer,
        partition: str,
    ) -> None:
        self.mask = mask
        self.fetch = fetch
        self.counters = counters
        self.tracer = tracer
        self.partition = partition

    def count(self, tests: int, pruned: int) -> None:
        """Charge ``tests`` signature tests, ``pruned`` of which pruned."""
        counters = self.counters
        counters.signature_tests_run += tests
        counters.edges_pruned_by_signature += pruned

    def __call__(self, edge_id: int) -> List[SpatioTextualObject]:
        mask = self.mask
        if mask is not None and (edge_id < 0 or not (mask >> edge_id) & 1):
            self.count(1, 1)
            if self.tracer.enabled:
                self.tracer.event(
                    "signature.prune", edge=edge_id, partition=self.partition
                )
            return []
        self.count(1, 0)
        return self.fetch(edge_id)


class ObjectIndex(abc.ABC):
    """Access path from an edge id to its matching objects.

    Concurrency contract: an index is **read-only during queries**.  A
    query's load counters are passed in by its caller — the
    :class:`~repro.engine.context.ExecutionContext` owns them — so
    concurrent queries never write into each other's stats.  The
    index's only persistent mutable state, :attr:`lifetime_counters`,
    absorbs one query's counters when its context closes
    (:meth:`merge_counters`).
    """

    #: Short name used in reports ("IR", "IF", "SIF", "SIF-P", "SIF-G").
    name: str = "?"

    def __init__(self, store: ObjectStore) -> None:
        self._store = store
        #: Lifetime totals; also where a call without counters counts.
        self.lifetime_counters = LoadCounters()
        self._merge_lock = threading.Lock()
        #: Wall-clock seconds spent building the index.
        self.build_seconds: float = 0.0

    def merge_counters(self, counters: LoadCounters) -> None:
        """Fold one query's counters into the lifetime totals (locked)."""
        with self._merge_lock:
            self.lifetime_counters.absorb(counters)

    @abc.abstractmethod
    def load_objects(
        self, edge_id: int, terms: FrozenSet[str],
        counters: Optional[LoadCounters] = None,
    ) -> List[SpatioTextualObject]:
        """Algorithm 2: objects on ``edge_id`` containing *all* ``terms``.

        Implementations charge their I/O to the shared disk manager and
        count into ``counters`` (``None``: :attr:`lifetime_counters`).
        """

    def loader(
        self, terms: FrozenSet[str], counters: Optional[LoadCounters] = None,
        tracer=NULL_TRACER,
    ) -> Callable[[int], List[SpatioTextualObject]]:
        """The per-query half of Algorithm 2: ``load_objects`` with
        ``terms`` and ``counters`` applied.

        An expansion binds one when it starts and drops it when it
        ends.  The signature indexes override this to resolve here what
        is constant for the query (the AND of the signed rows), so a
        loader is never kept across queries or updates; ``tracer`` gets
        their per-edge prune events.  SIF and SIF-G return a
        :class:`GuardedLoader`, whose mask the expansion tests inline;
        every other index returns a plain callable, called per edge.
        """
        load_objects = self.load_objects
        return lambda edge_id: load_objects(edge_id, terms, counters)

    @abc.abstractmethod
    def size_bytes(self) -> int:
        """Total on-disk size of the index (pages plus signatures)."""

    def describe(self) -> str:
        return f"{self.name} ({self.size_bytes() / 1024:.0f} KiB)"
