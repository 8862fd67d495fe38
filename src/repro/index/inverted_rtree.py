"""IR — the inverted R-tree baseline (paper §5, [23]).

One R-tree of object locations per keyword, built in Euclidean space
and therefore *independent of the road network*: to find the objects of
an edge the search must window-query every query keyword's R-tree with
the edge's MBR, then fetch each candidate's object record to check
which edge it actually lies on (an R-tree leaf entry carries only a
point and an object pointer).  Those verification reads against objects
of *other* nearby edges are why the paper reports IR "nearly 4 times
slower" than the network-aware indexes.
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, List, Optional, Set

from ..network.objects import ObjectStore, SpatioTextualObject
from ..spatial.geometry import MBR
from ..spatial.rtree import RTree, RTreeEntry
from ..storage.pagefile import PAGE_SIZE, DiskManager, PageFile
from .base import LoadCounters, ObjectIndex, offset_of
from .inverted_file import rarest_first

__all__ = ["InvertedRTreeIndex"]

_OBJECT_RECORD_BYTES = 64
_RECORDS_PER_PAGE = PAGE_SIZE // _OBJECT_RECORD_BYTES


class InvertedRTreeIndex(ObjectIndex):
    """Per-keyword R-trees over object points (index "IR")."""

    name = "IR"

    def __init__(
        self,
        store: ObjectStore,
        disk: DiskManager,
        file_prefix: str = "ir",
    ) -> None:
        super().__init__(store)
        self._disk = disk
        self._trees: Dict[str, RTree] = {}
        self._file = disk.create_file(f"{file_prefix}.rtrees", category="rtree")
        self._records: PageFile = disk.create_file(
            f"{file_prefix}.objects", category="rtree"
        )
        start = time.perf_counter()
        self._build()
        self.build_seconds = time.perf_counter() - start

    def _build(self) -> None:
        # Object record pages, ordered by object id: the verification
        # target of every R-tree candidate.
        record_ids: List[int] = sorted(o.object_id for o in self._store)
        self._record_page_of: Dict[int, int] = {}
        for start in range(0, len(record_ids), _RECORDS_PER_PAGE):
            chunk = record_ids[start : start + _RECORDS_PER_PAGE]
            payload = {
                oid: self._store.get(oid).position.edge_id for oid in chunk
            }
            page_no = self._records.allocate(
                payload, size_bytes=len(chunk) * _OBJECT_RECORD_BYTES
            )
            for oid in chunk:
                self._record_page_of[oid] = page_no

        staged: Dict[str, List[RTreeEntry]] = {}
        for obj in self._store:
            point = self._store.object_point(obj.object_id)
            box = MBR(point.x, point.y, point.x, point.y)
            for term in obj.keywords:
                staged.setdefault(term, []).append(RTreeEntry(box, obj.object_id))
        for term in sorted(staged):
            tree = RTree(self._file)
            tree.bulk_load(staged[term])
            self._trees[term] = tree

    def load_objects(
        self, edge_id: int, terms: FrozenSet[str],
        counters: Optional[LoadCounters] = None,
    ) -> List[SpatioTextualObject]:
        if counters is None:
            counters = self.lifetime_counters
        counters.edges_probed += 1
        region = self._store.network.edge(edge_id).mbr
        loaded_total = 0
        intersection: Optional[Set[int]] = None
        for term in rarest_first(self._store, terms):
            tree = self._trees.get(term)
            ids: Set[int] = set()
            if tree is not None:
                for entry in tree.window(region):
                    oid = entry.payload
                    # Verify which edge the candidate lies on: fetch its
                    # object record (the expensive step of IR).
                    record = self._records.read(self._record_page_of[oid])
                    loaded_total += 1
                    if record[oid] == edge_id:
                        ids.add(oid)
            intersection = ids if intersection is None else intersection & ids
        result_ids = intersection or set()
        counters.count_load(loaded_total, result_ids)
        return sorted(map(self._store.get, result_ids), key=offset_of)

    def size_bytes(self) -> int:
        return self._file.size_bytes + self._records.size_bytes
