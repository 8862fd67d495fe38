"""Update journal: the ordered history of dynamic changes.

Every committed update — object insert, object delete, edge reweight —
appends one :class:`UpdateRecord` stamped with the ``data_version`` the
database advanced to.  Consumers replay the suffix they have not seen:

* the semantic result cache validates an entry by checking whether any
  record since the entry's epoch is *relevant* to its query;
* the incremental diversified top-k maintainer folds the suffix into
  its candidate pool instead of re-running search;
* observability gauges report per-kind totals.

Both query-side consumers ask one question of an edge reweight —
could it reach this answer? — and :func:`reweight_is_relevant` is the
one answer.

The journal is append-only and thread-safe for readers; appends happen
under the database's update path, which is single-writer by contract
(concurrent structural mutation of the network/store is unsound — see
DESIGN.md "Dynamic updates").
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional

from ..network.distance import PAIRWISE_CUTOFF_FACTOR
from ..network.graph import NetworkPosition
from ..spatial.geometry import Point, project_onto_segment

__all__ = [
    "UpdateRecord", "UpdateJournal", "UPDATE_KINDS",
    "PAIRWISE_RADIUS_FACTOR", "reweight_is_relevant",
]

UPDATE_KINDS = ("insert", "delete", "edge_weight")

#: Radius, in units of ``delta_max``, of the region whose edges a
#: diversified answer depends on: 1 for the paths from the query to its
#: candidates, plus the pairwise cutoff for the paths between two.
PAIRWISE_RADIUS_FACTOR = 1.0 + PAIRWISE_CUTOFF_FACTOR


@dataclass(frozen=True)
class UpdateRecord:
    """One committed update, stamped with its post-commit epoch."""

    epoch: int
    kind: str  # one of UPDATE_KINDS
    edge_id: int
    #: Keywords of the inserted/deleted object; empty for edge_weight.
    terms: FrozenSet[str] = frozenset()
    #: Object position for insert/delete (post-commit coordinates).
    position: Optional[NetworkPosition] = None
    #: Geometric point of the object for insert/delete.  Stored because
    #: ``position`` is in weight units: a later edge reweight rescales
    #: the live coordinate system, after which the old offset no longer
    #: resolves — the point is what region tests need anyway.
    point: Optional[Point] = None
    #: Object id for insert/delete.
    object_id: Optional[int] = None
    #: New edge weight for edge_weight records.
    weight: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in UPDATE_KINDS:
            raise ValueError(
                f"unknown update kind {self.kind!r}; "
                f"expected one of {UPDATE_KINDS}"
            )


def reweight_is_relevant(
    db, query_point: Point, delta_max: float, edge_id: int
) -> bool:
    """Could reweighting ``edge_id`` change the diversified answer of a
    query at ``query_point``?

    Conservative — "maybe" is relevant.  Every path the answer depends
    on stays within ``PAIRWISE_RADIUS_FACTOR · delta_max`` of the query,
    and network distance is at least ``db.min_weight_per_length()``
    times Euclidean distance, so an edge whose whole segment lies
    beyond that radius cannot matter.
    """
    edge = db.network.edge(edge_id)
    closest, _t = project_onto_segment(query_point, edge.p1, edge.p2)
    euclid = query_point.distance_to(closest)
    return (
        db.min_weight_per_length() * euclid
        <= PAIRWISE_RADIUS_FACTOR * delta_max
    )


@dataclass
class UpdateJournal:
    """Append-only, thread-safe history of :class:`UpdateRecord`."""

    _records: List[UpdateRecord] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def append(self, record: UpdateRecord) -> None:
        with self._lock:
            if self._records and record.epoch <= self._records[-1].epoch:
                raise ValueError(
                    f"journal epochs must be strictly increasing "
                    f"({record.epoch} after {self._records[-1].epoch})"
                )
            self._records.append(record)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def since(self, epoch: int) -> List[UpdateRecord]:
        """All records with ``record.epoch > epoch``, oldest first.

        Epochs are strictly increasing, so a binary search would do;
        journals stay short in this simulation and a slice off the
        scanned tail keeps the code obvious.
        """
        with self._lock:
            i = len(self._records)
            while i > 0 and self._records[i - 1].epoch > epoch:
                i -= 1
            return self._records[i:]

    def counts(self) -> Dict[str, int]:
        """Lifetime number of records per update kind (for gauges)."""
        with self._lock:
            out = {kind: 0 for kind in UPDATE_KINDS}
            for record in self._records:
                out[record.kind] += 1
            return out
