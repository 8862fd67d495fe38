"""The :class:`Database` facade — one object tying the system together.

A database owns the road network, its CCAM disk layout, the network
R-tree, the object store and the shared disk manager (buffer pool +
I/O statistics).  Object indexes are built against it by name.

Query execution lives in :mod:`repro.engine`: the facade's entry
points (:meth:`Database.sk_search`,
:meth:`Database.diversified_search`) plan the query
(:func:`repro.engine.plan.plan_sk` and friends) and hand the plan to
the database's :class:`~repro.engine.executor.QueryEngine`.  All
per-query mutable state lives in the engine's
:class:`~repro.engine.context.ExecutionContext`, which is what lets
``db.engine.execute_many(plans, workers=N)`` run queries concurrently
against the very same index objects.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional

from ..engine.executor import QueryEngine
from ..engine.plan import plan_diversified, plan_sk
from ..errors import QueryError, ReproError
from ..index.base import ObjectIndex
from ..index.edge_store import EdgeStoreIndex
from ..index.inverted_file import InvertedFileIndex
from ..index.inverted_rtree import InvertedRTreeIndex
from ..index.sif import SIFIndex
from ..index.sif_g import SIFGIndex
from ..index.sif_p import SIFPIndex
from ..network.ccam import CCAMStore
from ..network.distance import (
    DISTANCE_BACKENDS,
    PAIRWISE_CUTOFF_FACTOR,
    PairwiseDistanceComputer,
)
from ..network.graph import CSRSnapshot, NetworkPosition, RoadNetwork
from ..obs.metrics import MetricsRegistry
from ..obs.slowlog import SlowQueryLog, SlowQueryThreshold
from ..obs.tracing import NULL_TRACER, Tracer
from ..network.objects import ObjectStore, SpatioTextualObject, build_edge_rtree
from ..spatial.kdtree import KDTreePartition
from ..spatial.rtree import RTree
from ..storage.pagefile import DiskManager
from .queries import DiversifiedResult, DiversifiedSKQuery, SKQuery, SKResult
from .updates import UpdateJournal, UpdateRecord

if TYPE_CHECKING:
    from ..network.ch import ContractionHierarchy
    from ..network.hub_labels import HubLabelBackend

__all__ = ["Database", "INDEX_KINDS", "collector_paused"]

#: Registry of index kinds accepted by :meth:`Database.build_index`.
INDEX_KINDS = ("ccam", "ir", "if", "sif", "sif-p", "sif-g")

#: The share of the pages on disk an unpinned LRU buffer holds: the
#: paper's "2 % of the dataset" (§5).
BUFFER_FRACTION = 0.02


@contextmanager
def collector_paused() -> Iterator[None]:
    """Run a bulk build with Python's cyclic garbage collector off.

    A dataset or index build allocates hundreds of thousands of
    long-lived tuples, lists and objects and frees almost none, so the
    collections their allocations trigger — young and full — find
    nothing to reclaim and cost about a third of the build.  The
    caller's prior state is restored however the block exits.  Nothing
    is frozen (``gc.freeze``): a :class:`Database` sits in a reference
    cycle, and a frozen one would never be collected.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _update_hooks(indexes: Iterable[ObjectIndex], method: str, what: str):
    """Each index's ``method``, resolved before the update touches
    anything: one index that cannot take it refuses the update whole,
    leaving store, indexes and epoch agreeing."""
    hooks = []
    for index in indexes:
        hook = getattr(index, method, None)
        if hook is None:
            raise QueryError(
                f"index {index.name} does not support dynamic {what}"
            )
        hooks.append(hook)
    return hooks


class Database:
    """A spatio-textual road-network database instance."""

    def __init__(
        self,
        network: RoadNetwork,
        buffer_pages: Optional[int] = None,
    ) -> None:
        """Create the disk-resident network structures.

        ``buffer_pages`` pins the LRU buffer size; when ``None`` the
        buffer holds ``max(8, ⌊BUFFER_FRACTION × pages on disk⌋)``
        pages — the paper's "2 % of the dataset" (§5) — counting the
        network's CCAM and R-tree pages and the pages of every index
        built so far.  The rule is applied at :meth:`freeze` and again
        after every :meth:`build_index`, so the buffer grows with the
        indexes; see :meth:`buffer_capacity`.

        Every database owns a :class:`~repro.obs.metrics.MetricsRegistry`
        (:attr:`metrics`).  Every query records its latency, per-stage
        breakdown and counter deltas into it and emits one record per
        query to any attached sink (see :meth:`publish`).

        Tracing is off (the no-op
        :data:`~repro.obs.tracing.NULL_TRACER`, no measurable overhead)
        until :meth:`enable_tracing`.

        Diversified queries evaluate exact pairwise network distances
        on the ``"csgraph"`` backend — bounded Dijkstras run in C over
        the in-memory network, no page reads charged — until
        :meth:`use_distance_backend` picks ``"dijkstra"`` (the same
        Dijkstras, charging the CCAM page of every node they settle, in
        the order the paper's loop settles them: its I/O model).
        """
        self.network = network
        self.metrics = MetricsRegistry()
        #: Off until :meth:`enable_tracing`; while on, every execution
        #: context builds its query's own tracer — which is what makes
        #: tracing safe under concurrent execution.
        self.tracing = False
        #: Who hears about each finished query (:meth:`publish`): a
        #: tuple of callables taking the query's event, replaced —
        #: never mutated — by ``enable_*`` / ``disable_*``, so a query
        #: finishing on another thread walks a consistent one without
        #: a lock.  The registry is always first, looked up at delivery
        #: because embedders and tests swap ``db.metrics``.
        self._subscribers: tuple = (
            lambda event: self.metrics.on_query(event),
        )
        #: Installed by :meth:`enable_slow_query_log`; subscribed to
        #: every finished query.
        self.slow_query_log: Optional[SlowQueryLog] = None
        self._ch_oracle: Optional[ContractionHierarchy] = None
        self._hub_oracle: Optional[HubLabelBackend] = None
        self.distance_backend = "csgraph"
        #: Every index built through :meth:`build_index`, for
        #: observability gauges (signature bytes / signed terms).
        self.indexes: List[ObjectIndex] = []
        self.disk = DiskManager(buffer_pages=buffer_pages or 1 << 30)
        self._explicit_buffer = buffer_pages
        #: Pages on disk when :meth:`freeze` ran (CCAM + edge R-tree),
        #: and the pages each index's build added.
        self._network_pages = 0
        self._index_pages: Dict[ObjectIndex, int] = {}
        self.ccam = CCAMStore(network, self.disk)
        rtree_file = self.disk.create_file("network.rtree", category="rtree")
        self.edge_rtree: RTree = build_edge_rtree(network, rtree_file)
        self.store = ObjectStore(network)
        self._kd_partition: Optional[KDTreePartition] = None
        self._engine: Optional[QueryEngine] = None
        self._frozen = False
        #: Monotonic data epoch.  Every committed dynamic update —
        #: insert, delete, edge reweight — advances it by one; queries
        #: pin the epoch they execute against
        #: (``ExecutionContext.epoch``, stamped on their stats) and a
        #: standing query catches up from it.
        self.data_version = 0
        #: Ordered history of committed updates (see
        #: :mod:`repro.core.updates`).
        self.update_journal = UpdateJournal()
        self._min_weight_per_length: Optional[float] = None
        #: Monotonic creation instant — the zero of ``/healthz`` uptime.
        self._created_monotonic = time.monotonic()
        #: Sliding-window rollup fed by every finished query (see
        #: :meth:`enable_rollup`); ``None`` until enabled.
        self.rollup = None
        #: Live SLO monitor over the rollup (see :meth:`use_live_slo`).
        self.live_slo = None
        #: Live HTTP scrape endpoint (see :meth:`serve_telemetry`).
        self.telemetry_server = None
        #: Flight recorder capturing every executed query (see
        #: :meth:`enable_flight_recorder`); ``None`` until enabled.
        self.flight_recorder = None

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def add_object(
        self, position: NetworkPosition, keywords: Iterable[str]
    ) -> SpatioTextualObject:
        """Add an object at a known network position."""
        self._ensure_not_frozen()
        return self.store.add(position, keywords)

    def freeze(self) -> None:
        """Finish loading: sort edge lists and apply the buffer rule.

        No index exists yet, so the buffer is sized from the network's
        pages alone — the 8-page floor on every shipped dataset until
        :meth:`build_index` re-applies the rule.
        """
        self.store.freeze()
        self._frozen = True
        self._network_pages = self._disk_pages()
        self._apply_buffer_rule()

    def _disk_pages(self) -> int:
        return sum(f.num_pages for f in self.disk.files())

    def buffer_capacity(self, index: Optional[ObjectIndex] = None) -> int:
        """The LRU capacity the buffer rule gives this database.

        ``buffer_pages`` when pinned; otherwise ``max(8,
        ⌊BUFFER_FRACTION × pages⌋)`` of every page on disk or, given
        ``index``, of the network's pages plus the pages that index's
        build added — the buffer a measurement of that one index is
        sized from, whatever else has been built.
        """
        if self._explicit_buffer is not None:
            return self._explicit_buffer
        if index is None:
            pages = self._disk_pages()
        else:
            pages = self._network_pages + self._index_pages[index]
        return max(8, int(pages * BUFFER_FRACTION))

    def _apply_buffer_rule(self) -> None:
        self.disk.resize_buffer(self.buffer_capacity())

    def insert_object(
        self,
        position: NetworkPosition,
        keywords: Iterable[str],
        indexes: Iterable[ObjectIndex] = (),
    ) -> SpatioTextualObject:
        """Dynamic insertion into a *live* (frozen) database.

        The object joins the store in visiting order and its postings
        and signature bits are pushed into every index in ``indexes``
        (IF, SIF and SIF-P maintain themselves incrementally; IR's
        packed R-trees are rebuilt offline, as in the paper's static
        setting).  Commits bump :attr:`data_version` and journal the
        change; network distances are untouched, so the hub-label
        oracle stays valid.
        """
        self.ensure_frozen()
        inserts = _update_hooks(indexes, "insert_object", "insertion")
        obj = self.store.add(position, keywords)
        self.store.resort_edge(position.edge_id)
        for insert in inserts:
            insert(obj)
        self._commit_update(UpdateRecord(
            epoch=self.data_version + 1,
            kind="insert",
            edge_id=position.edge_id,
            terms=obj.keywords,
            position=obj.position,
            object_id=obj.object_id,
        ))
        return obj

    def delete_object(
        self, object_id: int, indexes: Iterable[ObjectIndex] = ()
    ) -> SpatioTextualObject:
        """Dynamic deletion from a *live* (frozen) database.

        The object leaves the store first, then every index in
        ``indexes`` drops its postings — in that order, because SIF's
        conditional signature-bit clearing checks what *remains* on the
        edge.  Like insertion this bumps :attr:`data_version` without
        touching distance state.
        """
        self.ensure_frozen()
        deletes = _update_hooks(indexes, "delete_object", "deletion")
        obj = self.store.remove(object_id)
        for delete in deletes:
            delete(obj)
        self._commit_update(UpdateRecord(
            epoch=self.data_version + 1,
            kind="delete",
            edge_id=obj.position.edge_id,
            terms=obj.keywords,
            position=obj.position,
            object_id=obj.object_id,
        ))
        return obj

    def update_edge_weight(
        self,
        edge_id: int,
        weight: float,
        indexes: Iterable[ObjectIndex] = (),
    ) -> None:
        """Change one edge's traversal cost on a *live* database.

        This is the distance-changing update, so it does everything the
        object paths do not: the in-memory graph (its CSR snapshot
        included, in place) and its CCAM pages are patched, object
        offsets on the edge (which are in weight units) are rescaled
        so objects keep their geometric spot, indexes with
        positional state rescale theirs (SIF-P's virtual-edge cuts),
        and the hub-label oracle and the CH ordering under it are
        dropped for lazy rebuild against the new weights.  Pairwise
        node maps need nothing: each query's computer keeps its own
        and drops them with the query.  A weight outside ``(0, inf)``
        — zero, negative, NaN or infinite — raises
        :class:`~repro.errors.GraphError` before anything changes.
        """
        self.ensure_frozen()
        old = self.network.edge(edge_id)
        if weight == old.weight:
            return
        factor = weight / old.weight
        self.network.update_edge_weight(edge_id, weight)
        self.ccam.refresh_edge(edge_id)
        self.store.rescale_edge_offsets(edge_id, factor)
        for index in indexes:
            rescale = getattr(index, "rescale_edge", None)
            if rescale is not None:
                rescale(edge_id, factor)
        # Lazy rebuild: drop the oracle and the ordering it is built on;
        # the next call that needs them pays one preprocessing pass
        # against current weights.  Repairing affected shortcuts and
        # labels in place would be cheaper per update but unsound to
        # get subtly wrong — DESIGN.md "Dynamic updates" records the
        # trade-off.
        self._ch_oracle = None
        self._hub_oracle = None
        ratio = weight / old.length
        if (
            self._min_weight_per_length is not None
            and ratio < self._min_weight_per_length
        ):
            self._min_weight_per_length = ratio
        self._commit_update(UpdateRecord(
            epoch=self.data_version + 1,
            kind="edge_weight",
            edge_id=edge_id,
            weight=weight,
        ))

    def _commit_update(self, record: UpdateRecord) -> None:
        """Advance the epoch, journal the record, count it."""
        self.data_version = record.epoch
        self.update_journal.append(record)
        self.metrics.inc(f"update.{record.kind}")
        if self.flight_recorder is not None:
            # Updates interleave with the query stream in the flight
            # journal, so a replay can restore the exact data state
            # each recorded query executed against.
            self.flight_recorder.record_update(record)

    def min_weight_per_length(self) -> float:
        """Smallest ``weight / length`` ratio over all edges.

        Network distance between two points is at least this ratio
        times their Euclidean distance, which gives a standing query
        (:class:`~repro.core.incremental.IncrementalDiversifiedTopK`) a
        cheap relevance test for reweights far from its region.
        Computed lazily; edge reweights maintain it
        *shrink-only* (a raised weight never raises the stored minimum),
        keeping the bound conservative without a rescan.
        """
        if self._min_weight_per_length is None:
            self._min_weight_per_length = min(
                (e.weight / e.length for e in self.network.edges()),
                default=1.0,
            )
        return self._min_weight_per_length

    def _ensure_not_frozen(self) -> None:
        if self._frozen:
            raise ReproError("database is frozen; no more objects can be added")

    def ensure_frozen(self) -> None:
        """Raise unless :meth:`freeze` has been called (query precondition)."""
        if not self._frozen:
            raise ReproError("call freeze() before building indexes or querying")

    # ------------------------------------------------------------------
    # Index construction
    # ------------------------------------------------------------------
    @property
    def kd_partition(self) -> KDTreePartition:
        """KD-tree over edge centres, shared by all signature files."""
        if self._kd_partition is None:
            centers = [e.center for e in self.network.edges()]
            self._kd_partition = KDTreePartition(centers)
        return self._kd_partition

    def build_index(self, kind: str, **kwargs) -> ObjectIndex:
        """Build an object index: one of ``INDEX_KINDS``.

        Extra keyword arguments are forwarded to the index constructor
        (e.g. ``max_cuts=3`` or ``log_builder=...`` for ``"sif-p"``,
        ``top_terms=25`` for ``"sif-g"``).  The new index's pages count
        towards the buffer rule, which is re-applied before returning
        (see :meth:`buffer_capacity`).
        """
        self.ensure_frozen()
        kind = kind.lower()
        pages_before = self._disk_pages()
        with collector_paused():
            index: Optional[ObjectIndex] = None
            if kind == "ccam":
                index = EdgeStoreIndex(self.store, self.disk, **kwargs)
            elif kind == "ir":
                index = InvertedRTreeIndex(self.store, self.disk, **kwargs)
            elif kind == "if":
                index = InvertedFileIndex(self.store, self.disk, **kwargs)
            elif kind == "sif":
                index = SIFIndex(
                    self.store,
                    self.disk,
                    kd_partition=self.kd_partition,
                    **kwargs,
                )
            elif kind == "sif-p":
                index = SIFPIndex(
                    self.store,
                    self.disk,
                    kd_partition=self.kd_partition,
                    **kwargs,
                )
            elif kind == "sif-g":
                index = SIFGIndex(
                    self.store,
                    self.disk,
                    kd_partition=self.kd_partition,
                    **kwargs,
                )
            if index is None:
                raise QueryError(
                    f"unknown index kind {kind!r}; expected one of {INDEX_KINDS}"
                )
        self.indexes.append(index)
        self._index_pages[index] = self._disk_pages() - pages_before
        self._apply_buffer_rule()
        return index

    # ------------------------------------------------------------------
    # The query engine
    # ------------------------------------------------------------------
    @property
    def engine(self) -> QueryEngine:
        """The :class:`~repro.engine.executor.QueryEngine` executing this
        database's plans.

        Created on first use.  Assign a custom engine to change the
        execution policy, e.g. ``db.engine = QueryEngine(db,
        io_wait_latency=1e-3)`` to serve each query's physical reads as
        real (GIL-releasing) stalls — the disk-resident deployment the
        paper models, and what makes ``execute_many(workers=N)``
        overlap I/O.
        """
        if self._engine is None:
            self._engine = QueryEngine(self)
        return self._engine

    @engine.setter
    def engine(self, value: QueryEngine) -> None:
        self._engine = value

    # ------------------------------------------------------------------
    # Distance backends
    # ------------------------------------------------------------------
    def use_distance_backend(self, name: str) -> None:
        """Select the pairwise backend: ``csgraph`` or ``dijkstra``.

        ``csgraph`` runs one bounded Dijkstra per source in C over the
        network's CSR snapshot (:meth:`csr_graph`): nothing to build
        beyond one pass over the edges, nothing dropped on a reweight,
        no page read charged.  ``dijkstra`` is the same C search plus
        the CCAM page reads of the paper's loop, in its settle order,
        every settled node a charged page access — the paper's cost
        model; pin it to reproduce the paper's I/O figures.
        """
        name = name.lower()
        if name not in DISTANCE_BACKENDS:
            raise QueryError(
                f"unknown distance backend {name!r}; "
                f"expected one of {DISTANCE_BACKENDS}"
            )
        self.distance_backend = name

    def ch_oracle(self) -> "ContractionHierarchy":
        """The database's Contraction Hierarchy (built once): the node
        ordering :meth:`hub_oracle` builds its labels from.

        Construction runs over the in-memory network (CPU work, not
        charged I/O); an edge reweight drops it for lazy rebuild.
        """
        if self._ch_oracle is None:
            from ..network.ch import ContractionHierarchy

            self._ch_oracle = ContractionHierarchy(self.network)
        return self._ch_oracle

    def hub_oracle(self) -> "HubLabelBackend":
        """The database's hub-label oracle (built once): exact
        distances by label joins, not Dijkstra searches.  Tests and the
        benchmark check the pairwise backends against it by handing it
        to a computer (``PairwiseDistanceComputer(...,
        backend=db.hub_oracle())``); no query runs on it.

        The labels are the CH's upward search spaces, so construction
        reuses (or triggers) :meth:`ch_oracle`.  An edge reweight drops
        it for lazy rebuild.
        """
        if self._hub_oracle is None:
            from ..network.hub_labels import HubLabelBackend

            self._hub_oracle = HubLabelBackend(
                self.network, ch=self.ch_oracle()
            )
        return self._hub_oracle

    def csr_graph(self) -> CSRSnapshot:
        """The network's adjacency as flat arrays — what the ``csgraph``
        backend traverses.

        Built on the first call and the same object from then on: an
        edge reweight patches its two cells in place; only a change of
        the node or edge set makes the next call build a new one.
        """
        return self.network.csr_snapshot()

    def pairwise_computer(
        self, delta_max: float, tracer=NULL_TRACER
    ) -> PairwiseDistanceComputer:
        """The pairwise computer of one diversified query — the
        engine's and the standing query's, built here and nowhere else.

        Either backend searches in C over the network's CSR snapshot,
        built here on first use rather than inside the first source's
        timing.  Under ``dijkstra`` the computer reads through the CCAM
        store, charging the page of every node a search settles.  The
        cutoff is ``PAIRWISE_CUTOFF_FACTOR · delta_max``.  One computer
        per query: the rows it keeps die with it.
        """
        self.csr_graph()
        charged = self.distance_backend == "dijkstra"
        return PairwiseDistanceComputer(
            self.ccam if charged else self.network,
            self.network,
            cutoff=PAIRWISE_CUTOFF_FACTOR * delta_max,
            tracer=tracer,
        )

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def enable_tracing(self) -> None:
        """Trace every subsequent query.

        Each query records its own span tree (INE rounds, signature
        filtering, pairwise Dijkstras, COM rounds), within the
        :class:`~repro.obs.tracing.Tracer` bounds, on a tracer its
        execution context builds —
        so tracing composes with ``execute_many(workers=N)``: a traced
        concurrent batch yields one well-formed tree per query.  The
        finished root rides the query's event
        (:attr:`QueryEvent.trace <repro.obs.events.QueryEvent.trace>`)
        and nothing else keeps it: install a slow-query log to capture
        the trees (``repro slowlog FILE`` narrates them).  Setting
        :attr:`tracing` back to ``False`` turns tracing off.
        """
        self.tracing = True

    # ------------------------------------------------------------------
    # Slow-query log
    # ------------------------------------------------------------------
    def enable_slow_query_log(
        self,
        latency_seconds: Optional[float] = None,
        visited_nodes: Optional[int] = None,
        path=None,
    ) -> SlowQueryLog:
        """Install a :class:`~repro.obs.slowlog.SlowQueryLog`.

        Every finished query whose wall time reaches
        ``latency_seconds`` and/or whose expansion visited at least
        ``visited_nodes`` network nodes is captured with its plan
        label, full stats snapshot and — when tracing is enabled — its
        complete span tree.  ``path`` streams captured records to a
        JSON-lines file (render it with ``repro slowlog FILE``).
        Thread-safe; composes with ``execute_many(workers=N)``.
        """
        self.disable_slow_query_log()
        self.slow_query_log = log = SlowQueryLog(
            SlowQueryThreshold(
                latency_seconds=latency_seconds,
                visited_nodes=visited_nodes,
            ),
            path=path,
        )
        self._subscribers += (log.offer,)
        return log

    def disable_slow_query_log(self) -> None:
        """Detach and close the slow-query log, if one is installed."""
        log, self.slow_query_log = self.slow_query_log, None
        if log is not None:
            self._unsubscribe(log.offer)
            log.close()

    # ------------------------------------------------------------------
    # Flight recorder
    # ------------------------------------------------------------------
    def enable_flight_recorder(self, path=None):
        """Install a :class:`~repro.obs.recorder.FlightRecorder`.

        Every subsequent query execution is captured — full query
        parameters, plan label + cost hints, result digest, latency
        and stats snapshot — and every committed dynamic update is
        journalled inline, so the capture replays deterministically
        (``repro replay FILE``).  ``path`` streams the journal to a
        JSON-lines file as it is written (``--record FILE`` on the
        workload CLIs).  Thread-safe; composes with
        ``execute_many(workers=N)`` and live ``/recorder`` scrapes.
        """
        from ..obs.recorder import FlightRecorder

        self.disable_flight_recorder()
        self.flight_recorder = recorder = FlightRecorder(path=path)
        self._subscribers += (recorder.record_query,)
        return recorder

    def disable_flight_recorder(self) -> None:
        """Detach and close the flight recorder, if one is installed."""
        recorder, self.flight_recorder = self.flight_recorder, None
        if recorder is not None:
            self._unsubscribe(recorder.record_query)
            recorder.close()

    # ------------------------------------------------------------------
    # Live telemetry: rollup, live SLO, HTTP endpoint
    # ------------------------------------------------------------------
    def uptime_seconds(self) -> float:
        """Seconds since this database object was created."""
        return time.monotonic() - self._created_monotonic

    def enable_rollup(self):
        """Install (or return) the sliding-window rollup.

        Once installed, every finished query is recorded into it
        (latency, error flag) alongside the lifetime registry, giving
        ``/vars`` and live SLO rules a recent-window view (QPS,
        windowed p50/p95/p99, error rate).
        Idempotent: an existing rollup is kept, so the engine, the
        telemetry server and the load driver share one ring.
        """
        if self.rollup is None:
            from ..obs.rollup import SlidingWindowRollup

            self.rollup = SlidingWindowRollup()
            self._subscribers += (self.rollup.on_query,)
        return self.rollup

    def use_live_slo(self, spec):
        """Install a live SLO monitor evaluating ``spec`` per window.

        ``spec`` is an :class:`~repro.obs.slo.SLOSpec` whose rules read
        the rollup's window snapshot (``query.wall_seconds`` /
        ``loadtest.latency_seconds`` histograms, ``query.*`` and
        ``window.*`` counters).  Breach windows are counted into the
        metrics registry and noted into whatever slow-query log is
        installed when the breach is seen — before or after this call.  Enables
        the rollup on demand; returns the monitor.
        """
        from ..obs.slo import SLOMonitor

        self.live_slo = SLOMonitor(
            spec,
            self.enable_rollup().snapshot,
            metrics=self.metrics,
            slowlog=lambda: self.slow_query_log,
        )
        return self.live_slo

    def serve_telemetry(
        self, port: int = 0, host: str = "127.0.0.1"
    ):
        """Start the live HTTP observability endpoint for this database.

        Serves ``/metrics`` (Prometheus text) and the JSON routes that
        ``GET /`` lists from a daemon thread — this is the per-shard
        scrape target the ROADMAP's serving layer mounts.  ``port=0``
        binds an ephemeral port; read it back from the returned
        server's ``port``.  Enables the rollup so scrapes see live
        windows.  Returns the running
        :class:`~repro.obs.server.TelemetryServer`.
        """
        if self.telemetry_server is not None:
            return self.telemetry_server
        from ..obs.server import TelemetryServer

        self.enable_rollup()
        self.telemetry_server = TelemetryServer(
            self, host=host, port=port
        ).start()
        return self.telemetry_server

    def stop_telemetry(self) -> None:
        """Shut the telemetry endpoint down, if one is serving."""
        server, self.telemetry_server = self.telemetry_server, None
        if server is not None:
            server.close()

    def explain(
        self,
        index: ObjectIndex,
        query,
        method: str = "com",
        enable_pruning: bool = True,
        slow_threshold: Optional[SlowQueryThreshold] = None,
    ) -> "ExplainReport":
        """Plan one query, run it under a temporary tracer, explain it.

        ``query`` may be an :class:`~repro.core.queries.SKQuery` or a
        :class:`~repro.core.queries.DiversifiedSKQuery` (routed through
        ``method``).  Whether tracing is on for the database does not
        matter — the temporary tracer rides the execution context.
        The report carries the chosen
        :class:`~repro.engine.plan.QueryPlan` and the query's span
        tree and result (see :mod:`repro.obs.explain`).

        ``slow_threshold`` adds a slow-query verdict to the rendered
        report, so a single query can be judged against an SLO without
        running a whole workload; when omitted, the installed
        slow-query log's threshold (if any) is used.
        """
        from ..obs.explain import ExplainReport

        if isinstance(query, DiversifiedSKQuery):
            plan = plan_diversified(
                self, index, query, method=method,
                enable_pruning=enable_pruning,
            )
        else:
            plan = plan_sk(self, index, query)
        tracer = Tracer()
        result = self.engine.execute(plan, tracer=tracer)
        if slow_threshold is None and self.slow_query_log is not None:
            slow_threshold = self.slow_query_log.threshold
        return ExplainReport(
            tracer.last_trace, result, plan=plan,
            slow_threshold=slow_threshold,
        )

    # ------------------------------------------------------------------
    # Per-query events
    # ------------------------------------------------------------------
    def publish(self, event) -> None:
        """Tell every subscriber about one finished (or failed) query.

        Called once per execution by the engine with the query's
        :class:`~repro.obs.events.QueryEvent`, on the thread that ran
        it.  The metrics registry always listens; ``enable_rollup``,
        ``enable_slow_query_log`` and ``enable_flight_recorder`` add
        theirs and the matching ``disable_*`` removes it.
        """
        for deliver in self._subscribers:
            deliver(event)

    def _unsubscribe(self, deliver) -> None:
        self._subscribers = tuple(
            s for s in self._subscribers if s != deliver
        )

    # ------------------------------------------------------------------
    # Queries (thin wrappers over the engine)
    # ------------------------------------------------------------------
    def sk_search(self, index: ObjectIndex, query: SKQuery) -> SKResult:
        """Algorithm 3: boolean SK range search on the road network;
        with ``query.limit``, the boolean kNN query."""
        return self.engine.execute(plan_sk(self, index, query))

    def diversified_search(
        self,
        index: ObjectIndex,
        query: DiversifiedSKQuery,
        method: Optional[str] = "com",
        enable_pruning: bool = True,
    ) -> DiversifiedResult:
        """Diversified SK search via ``"seq"`` or ``"com"``.

        ``method=None`` runs SEQ when the query's candidate pool closes
        inside ``2·k`` arrivals or ``λ ≤ ½``, and COM seeded from them
        otherwise (see :func:`repro.engine.plan.plan_diversified`)."""
        plan = plan_diversified(
            self, index, query, method=method,
            enable_pruning=enable_pruning,
        )
        return self.engine.execute(plan)

    # ------------------------------------------------------------------
    # Reporting helpers
    # ------------------------------------------------------------------
    def dataset_statistics(self) -> Dict[str, float]:
        """Table-2-style statistics of the loaded dataset."""
        return {
            "num_objects": len(self.store),
            "vocabulary_size": self.store.vocabulary_size,
            "avg_keywords": round(self.store.average_keywords_per_object(), 2),
            "num_nodes": self.network.num_nodes,
            "num_edges": self.network.num_edges,
        }
