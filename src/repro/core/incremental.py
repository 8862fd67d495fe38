"""Incremental maintenance of a diversified top-k answer under updates.

Re-running SEQ (or COM) from scratch after every insert/delete repeats
the expensive part — the network expansion that gathers the candidate
set — even though a single object update changes at most one candidate.
Following the incremental diversified top-k line of work (Qin, Yu &
Chang, arXiv 1208.0076), :class:`IncrementalDiversifiedTopK` keeps
the query's *full candidate pool* (every object within ``delta_max``
matching the keywords, exactly what SEQ's exhaustive expansion
produces) and maintains it against the database's update journal:

* **insert** — if the new object carries all query keywords, its
  network distance is evaluated against a cached single-source node
  map (one bounded Dijkstra per refresh batch, reused across inserts);
  within ``delta_max`` it joins the pool.
* **delete** — the object is dropped from the pool by id.
* **edge_weight** — a reweight can shift *every* candidate's distance
  and the pairwise distances between them; if the edge intersects the
  query's relevance region the pool is re-bootstrapped from a fresh
  expansion (counted in :attr:`full_recomputes`).  Reweights of far
  edges are ignored, by a conservative Euclidean bound
  (:meth:`IncrementalDiversifiedTopK._reweight_is_relevant`).

The answer is then *re-diversified* from the maintained pool by the
function SEQ scores its own pool with
(:func:`~repro.core.diversified_search.diversify_pool`).  Because the
pool is kept exactly equal to what a fresh exhaustive expansion would
return, and greedy diversification is deterministic in the pool
contents (candidates are sorted by ``(distance, object_id)`` before
selection), the refreshed answer is **identical** to re-running
``diversified_search`` from scratch at the current epoch — the
recompute-equivalence contract the property tests enforce.

Distance fidelity
-----------------
Pool distances must be bit-identical to INE's ``δ(q, o)`` or the
greedy tie-breaks could diverge.  INE computes ``min over settled
end-nodes of (δ(q, n) + offset-from-n)`` with nodes settled up to
``delta_max``, and pins objects sharing the query's edge at the
along-edge distance ``|offset_o - offset_q|`` (paper's same-edge rule,
applied *instead of* the endpoint paths).  The maintainer mirrors both
rules: ``single_source_distances(cutoff=delta_max)`` yields exactly
the settled-node map, and same-edge inserts take the pinned along-edge
distance without consulting it.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..errors import DatasetError, GraphError
from ..index.base import LoadCounters
from ..network.distance import (
    PAIRWISE_CUTOFF_FACTOR,
    position_distance_from_node_map,
    single_source_distances,
)
from ..obs.metrics import StageClock
from ..spatial.geometry import project_onto_segment
from .diversified_search import _record_pairwise, diversify_pool
from .ine import INEExpansion
from .objective import DiversificationObjective
from .queries import DiversifiedResult, DiversifiedSKQuery, QueryStats, ResultItem

__all__ = ["IncrementalDiversifiedTopK"]

#: Radius, in units of ``delta_max``, of the region whose edges a
#: diversified answer depends on: 1 for the paths from the query to its
#: candidates, plus the pairwise cutoff for the paths between two.
PAIRWISE_RADIUS_FACTOR = 1.0 + PAIRWISE_CUTOFF_FACTOR


class IncrementalDiversifiedTopK:
    """One standing diversified query, maintained across updates.

    Parameters
    ----------
    db:
        The :class:`~repro.core.database.Database` (duck-typed; needs
        ``ccam``, ``network``, ``store``, ``update_journal``,
        ``data_version``, ``min_weight_per_length`` and
        ``pairwise_computer``).
    index:
        Object index the standing query reads through.
    query:
        The :class:`DiversifiedSKQuery` to keep answered.
    """

    def __init__(self, db, index, query: DiversifiedSKQuery) -> None:
        self._db = db
        self._index = index
        self._query = query
        self._objective = DiversificationObjective(query.lambda_, query.delta_max)
        #: object_id -> ResultItem, the full candidate pool.
        self._pool: Dict[int, ResultItem] = {}
        #: Journal epoch the pool reflects.
        self._epoch = 0
        #: Cached single-source node map for insert distance evaluation;
        #: distances from the query only change on a (region-relevant)
        #: reweight, which re-bootstraps and drops the cache.
        self._node_map: Optional[Dict[int, float]] = None
        self.refreshes = 0
        self.incremental_refreshes = 0
        self.full_recomputes = 0
        self._bootstrap()

    # ------------------------------------------------------------------
    # Pool maintenance
    # ------------------------------------------------------------------
    def _bootstrap(self) -> None:
        """(Re)build the pool from a fresh exhaustive expansion."""
        db = self._db
        q = self._query
        # Sample the epoch *before* expanding: an update landing
        # mid-expansion is then replayed by the next refresh instead of
        # being silently half-applied.
        self._epoch = db.data_version
        # The expansion counts into counters of its own, folded into the
        # index's lifetime totals under its lock, as a query's are.
        counters = LoadCounters()
        expansion = INEExpansion(
            db.ccam, db.network, self._index, q.position, q.terms,
            q.delta_max, counters,
        )
        try:
            self._pool = {
                item.object.object_id: item
                for item in expansion.run_to_completion()
            }
        finally:
            self._index.merge_counters(counters)
        self._node_map = None

    def _reweight_is_relevant(self, edge_id: int) -> bool:
        """Could reweighting ``edge_id`` change any distance we rely on?

        Conservative — "maybe" is relevant.  Every path the answer
        depends on stays within ``PAIRWISE_RADIUS_FACTOR · delta_max``
        of the query, and network distance is at least
        ``db.min_weight_per_length()`` times Euclidean distance, so an
        edge whose whole segment lies beyond that radius cannot matter.
        """
        db = self._db
        q = self._query
        try:
            query_point = db.network.position_point(q.position)
        except GraphError:
            # The query's own edge shrank beneath its offset: the
            # standing query's geometry itself is stale — recompute.
            return True
        edge = db.network.edge(edge_id)
        closest, _t = project_onto_segment(query_point, edge.p1, edge.p2)
        euclid = query_point.distance_to(closest)
        return (
            db.min_weight_per_length() * euclid
            <= PAIRWISE_RADIUS_FACTOR * q.delta_max
        )

    def _insert_distance(self, obj) -> float:
        """``δ(q, o)`` exactly as INE would have computed it."""
        db = self._db
        q = self._query
        if obj.position.edge_id == q.position.edge_id:
            # Same-edge rule: pinned along-edge distance, no endpoint
            # paths (mirrors INE's `pinned` set).
            return abs(obj.position.offset - q.position.offset)
        if self._node_map is None:
            self._node_map = single_source_distances(
                db.ccam, db.network, q.position, cutoff=q.delta_max
            )
        return position_distance_from_node_map(
            db.network, self._node_map, obj.position
        )

    def refresh(self) -> bool:
        """Catch the pool up with the journal.

        Returns ``True`` when anything changed (pool content or a full
        re-bootstrap), ``False`` when every journaled record since the
        last refresh was irrelevant to this query.
        """
        db = self._db
        q = self._query
        records = db.update_journal.since(self._epoch)
        if not records:
            return False
        self.refreshes += 1
        changed = False
        for rec in records:
            if rec.kind == "edge_weight":
                if self._reweight_is_relevant(rec.edge_id):
                    # Distances (query->object and pairwise) may all have
                    # moved; rebuild from scratch at the current epoch.
                    # _bootstrap advances the cursor past the remaining
                    # records too — the fresh expansion already sees them.
                    self._bootstrap()
                    self.full_recomputes += 1
                    return True
                continue
            if rec.kind == "delete":
                if self._pool.pop(rec.object_id, None) is not None:
                    changed = True
                continue
            # insert
            if not q.terms <= rec.terms:
                continue
            try:
                obj = db.store.get(rec.object_id)
            except DatasetError:
                # Inserted and deleted again later in this same batch;
                # the delete record will keep it out of the pool.
                continue
            dist = self._insert_distance(obj)
            if dist <= q.delta_max:
                self._pool[rec.object_id] = ResultItem(obj, dist)
                changed = True
        self._epoch = records[-1].epoch
        self.incremental_refreshes += 1
        return changed

    # ------------------------------------------------------------------
    # Answer
    # ------------------------------------------------------------------
    def result(self) -> DiversifiedResult:
        """Diversify the maintained pool; identical to a fresh SEQ run.

        Takes its pairwise computer from where the engine takes a
        query's (``db.pairwise_computer``), scores the pool through the
        function a query's SEQ exit scores its own with (one batched
        pair matrix, the array greedy, ``f(S)`` read off that matrix)
        and copies the computer's counters the way that exit does.
        """
        q = self._query
        computer = self._db.pairwise_computer(q.delta_max)
        clock = StageClock()
        chosen, value = diversify_pool(
            list(self._pool.values()), q.k, self._objective, computer, clock
        )
        stats = QueryStats(candidates=len(self._pool), epoch=self._epoch)
        _record_pairwise(stats, computer, clock)
        stats.stage_seconds = clock.stages
        return DiversifiedResult(chosen, value, "SEQ", stats)

    def current(self) -> DiversifiedResult:
        """:meth:`refresh` then :meth:`result` in one call."""
        self.refresh()
        return self.result()

    @property
    def pool_size(self) -> int:
        return len(self._pool)

    @property
    def epoch(self) -> int:
        return self._epoch

    def counters(self) -> Dict[str, int]:
        return {
            "refreshes": self.refreshes,
            "incremental_refreshes": self.incremental_refreshes,
            "full_recomputes": self.full_recomputes,
            "pool_size": len(self._pool),
        }
