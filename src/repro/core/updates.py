"""Update journal: the ordered history of dynamic changes.

Every committed update — object insert, object delete, edge reweight —
appends one :class:`UpdateRecord` stamped with the ``data_version`` the
database advanced to.  Consumers replay the suffix they have not seen:

* the incremental diversified top-k maintainer (the standing query)
  folds the suffix into its candidate pool instead of re-running
  search;
* observability gauges report per-kind totals.

The journal is append-only and thread-safe for readers; appends happen
under the database's update path, which is single-writer by contract
(concurrent structural mutation of the network/store is unsound — see
DESIGN.md "Dynamic updates").
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import AbstractSet, Dict, List, Optional

from ..network.graph import NetworkPosition

__all__ = ["UpdateRecord", "UpdateJournal", "UPDATE_KINDS"]

UPDATE_KINDS = ("insert", "delete", "edge_weight")


@dataclass(frozen=True)
class UpdateRecord:
    """One committed update, stamped with its post-commit epoch."""

    epoch: int
    kind: str  # one of UPDATE_KINDS
    edge_id: int
    #: Keywords of the inserted/deleted object; empty for edge_weight.
    terms: AbstractSet[str] = frozenset()
    #: Object position for insert/delete (post-commit coordinates).
    position: Optional[NetworkPosition] = None
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
