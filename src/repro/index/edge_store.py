"""CCAM object storage — the C1 analysis baseline (paper §3.2).

"A large number of irrelevant objects may be loaded if we simply store
objects together with their corresponding edges in the CCAM structure"
(§3.1).  This index does exactly that: every object of an edge lives in
the edge's object pages and all of them are loaded before the keyword
constraint is tested.  It exists to reproduce the ``C1 = l_e × m``
analysis and as the ablation baseline showing why inverted indexing is
needed.
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, List, Optional

from ..network.objects import ObjectStore, SpatioTextualObject
from ..storage.pagefile import PAGE_SIZE, DiskManager, PageFile
from .base import LoadCounters, ObjectIndex, offset_of

__all__ = ["EdgeStoreIndex"]

_OBJECT_RECORD_BYTES = 64  # id, offset, and an inline keyword summary


class EdgeStoreIndex(ObjectIndex):
    """All objects stored with their edges, no textual access path."""

    name = "CCAM"

    def __init__(
        self, store: ObjectStore, disk: DiskManager, file_prefix: str = "edgestore"
    ) -> None:
        super().__init__(store)
        self._file: PageFile = disk.create_file(
            f"{file_prefix}.objects", category="inverted"
        )
        self._edge_pages: Dict[int, List[int]] = {}
        start = time.perf_counter()
        self._build()
        self.build_seconds = time.perf_counter() - start

    def _build(self) -> None:
        per_page = max(1, PAGE_SIZE // _OBJECT_RECORD_BYTES)
        for edge_id in self._store.edges_with_objects():
            objects = self._store.objects_on_edge(edge_id)
            pages: List[int] = []
            for start in range(0, len(objects), per_page):
                chunk = [o.object_id for o in objects[start : start + per_page]]
                pages.append(
                    self._file.allocate(
                        chunk, size_bytes=len(chunk) * _OBJECT_RECORD_BYTES
                    )
                )
            self._edge_pages[edge_id] = pages

    def load_objects(
        self, edge_id: int, terms: FrozenSet[str],
        counters: Optional[LoadCounters] = None,
    ) -> List[SpatioTextualObject]:
        if counters is None:
            counters = self.lifetime_counters
        pages = self._edge_pages.get(edge_id)
        if not pages:
            return []
        counters.edges_probed += 1
        loaded: List[SpatioTextualObject] = []
        for page_no in pages:
            for oid in self._file.read(page_no):
                loaded.append(self._store.get(oid))
        out = [o for o in loaded if o.contains_all(terms)]
        counters.count_load(len(loaded), out)
        out.sort(key=offset_of)
        return out

    def size_bytes(self) -> int:
        return self._file.size_bytes
