"""Semantic result cache for diversified queries.

Caches full diversified top-k answers keyed on everything that
determines them — index, keywords, query location, ``delta_max``,
``k``, ``λ`` and algorithm — and *survives unrelated updates*: instead
of flushing on every ``data_version`` bump, an entry is validated
lazily on probe by replaying the update journal since the entry's last
known-good epoch and asking whether any record could possibly have
changed this query's answer.

Relevance predicates (conservative — "maybe relevant" invalidates):

* **insert/delete** — the object must carry *all* of the query's
  keywords (AND semantics; anything else can never enter the candidate
  set) *and* lie within ``delta_max`` of the query point.  The spatial
  half uses the Euclidean lower bound ``network_distance >= r_min *
  euclidean_distance`` where ``r_min = min(weight/length)`` over all
  edges (``Database.min_weight_per_length``, maintained shrink-only so
  it stays a lower bound across reweights).
* **edge_weight** — a reweighted edge matters if any path the query
  evaluated could cross it
  (:func:`~repro.core.updates.reweight_is_relevant`, the test the
  standing query uses too): the edge is irrelevant when the Euclidean
  bound puts its whole segment beyond ``PAIRWISE_RADIUS_FACTOR ·
  delta_max`` of the query.

A surviving probe advances the entry's epoch to the current
``data_version``, so each journal record is examined at most once per
entry.  LRU-bounded and lock-protected: safe under
``execute_many(workers=N)``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..core.queries import DiversifiedResult, DiversifiedSKQuery
from ..core.updates import UpdateRecord, reweight_is_relevant
from ..errors import GraphError
from ..spatial.geometry import Point

__all__ = ["ResultCache"]


@dataclass
class _Entry:
    result: DiversifiedResult
    #: Every journal record at or before this epoch is known harmless.
    valid_epoch: int
    query_point: Point
    terms: frozenset
    delta_max: float


class ResultCache:
    """LRU cache of diversified answers with journal-based validation."""

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: "OrderedDict[Tuple, _Entry]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.invalidated = 0
        self.evictions = 0

    @staticmethod
    def _key(index_name: str, query: DiversifiedSKQuery, algorithm: str) -> Tuple:
        return (
            index_name,
            tuple(sorted(query.terms)),
            query.position.edge_id,
            query.position.offset,
            query.delta_max,
            query.k,
            query.lambda_,
            algorithm,
        )

    # ------------------------------------------------------------------
    # Relevance predicates
    # ------------------------------------------------------------------
    @staticmethod
    def _relevant(db, entry: _Entry, rec: UpdateRecord) -> bool:
        """Could this journal record have changed the entry's answer?"""
        if rec.kind == "edge_weight":
            return reweight_is_relevant(
                db, entry.query_point, entry.delta_max, rec.edge_id
            )
        # insert / delete: keyword test first (it is exact), then region.
        if not entry.terms <= rec.terms:
            return False
        euclid = entry.query_point.distance_to(rec.point)
        return db.min_weight_per_length() * euclid <= entry.delta_max

    # ------------------------------------------------------------------
    # Probe / fill
    # ------------------------------------------------------------------
    def get(
        self, db, index_name: str, query: DiversifiedSKQuery, algorithm: str
    ) -> Optional[DiversifiedResult]:
        """The cached answer, or ``None`` (miss or invalidated)."""
        key = self._key(index_name, query, algorithm)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            current = db.data_version
            if entry.valid_epoch < current:
                for rec in db.update_journal.since(entry.valid_epoch):
                    if self._relevant(db, entry, rec):
                        del self._entries[key]
                        self.invalidated += 1
                        self.misses += 1
                        return None
                entry.valid_epoch = current
            self._entries.move_to_end(key)
            self.hits += 1
            return entry.result

    def put(
        self,
        db,
        index_name: str,
        query: DiversifiedSKQuery,
        algorithm: str,
        result: DiversifiedResult,
    ) -> None:
        """Cache one answer, valid as of the epoch it executed against.

        The entry's epoch is the *query's* pinned epoch
        (``result.stats.epoch``), not the database's current one — an
        update committing mid-query must be replayed on the next probe,
        not silently skipped.
        """
        key = self._key(index_name, query, algorithm)
        try:
            query_point = db.network.position_point(query.position)
        except GraphError:
            # An edge reweight between execution and this put can leave
            # the query's weight-unit offset beyond the shrunken edge;
            # such an answer is about to be invalid anyway — skip it.
            return
        entry = _Entry(
            result=result,
            valid_epoch=result.stats.epoch,
            query_point=query_point,
            terms=query.terms,
            delta_max=query.delta_max,
        )
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "invalidated": self.invalidated,
                "evictions": self.evictions,
            }
