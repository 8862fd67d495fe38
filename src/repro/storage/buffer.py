"""LRU buffer pool for the simulated disk.

The paper uses "an LRU memory buffer whose size is set to 2% of the
network dataset size".  Keys are ``(file_name, page_no)`` pairs shared
across every structure of a database, so hot pages of the road network
compete with inverted-file pages exactly as they would in one real
buffer pool.

One rule decides hit or miss: :meth:`BufferPool.settle` runs a list of
page keys through the pool in order and charges each hit, miss and
eviction to one :class:`~repro.storage.iostats.IOStats`.  A query's
reads arrive as one such list, its I/O scope's log, settled when the
query's counters are read; a read outside any query is the one-key
case.  The pool owns the
database's global :attr:`~BufferPool.stats` and the file-name →
category map a miss is counted under.

Concurrency contract: the pool is shared by queries running on
multiple threads, so every settle runs under one internal lock — the
LRU order book can never be observed mid-eviction, and one query's log
settles as one unit.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Hashable, Sequence, Tuple

from .iostats import IOStats

__all__ = ["BufferPool"]


class BufferPool:
    """An LRU cache of page identifiers.

    The pool stores only page *identities* (payloads stay in their page
    files); its job is to decide whether an access is a buffer hit or a
    physical read, which is all the I/O model needs.  :attr:`stats` are
    the totals it charges reads outside any scope, :meth:`access` and
    :meth:`resize` evictions to; its scopes settle through this pool.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 0:
            raise ValueError("buffer capacity must be non-negative")
        self._capacity = capacity
        self._lru: "OrderedDict[Hashable, None]" = OrderedDict()
        self._lock = threading.Lock()
        self.stats = IOStats(pool=self)
        #: Category of every file name ever registered.  It never
        #: shrinks, so a log holding a page of a since-dropped file
        #: still settles; an unregistered name is its own category.
        self.categories: Dict[str, str] = {}

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._lru)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._lru

    def settle(self, keys: Sequence[Tuple[str, int]], stats: IOStats) -> int:
        """Touch each page of ``keys`` in order; returns the hits.

        A hit moves the page to the most recently used end.  A miss
        admits it, evicts the least recently used page if the pool is
        over capacity, and counts a physical read under the page's
        file category.  A zero-capacity pool misses every access and
        admits nothing.  Every count lands in ``stats``.
        """
        missed = evictions = 0
        misses = stats.physical_by_category
        categories = self.categories
        with self._lock:
            lru = self._lru
            capacity = self._capacity
            touch = lru.move_to_end
            for key in keys:
                try:
                    touch(key)
                except KeyError:
                    missed += 1
                    name = key[0]
                    misses[categories.get(name, name)] += 1
                    if capacity:
                        lru[key] = None
                        if len(lru) > capacity:
                            lru.popitem(last=False)
                            evictions += 1
        hits = len(keys) - missed
        stats.logical_reads += len(keys)
        stats.buffer_hits += hits
        stats.physical_reads += missed
        stats.evictions += evictions
        return hits

    def evict_file(self, file_name: str) -> None:
        """Evict every buffered page of one file (file drop)."""
        with self._lock:
            stale = [k for k in self._lru if k[0] == file_name]
            for key in stale:
                del self._lru[key]

    def resize(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError("buffer capacity must be non-negative")
        with self._lock:
            self._capacity = capacity
            while len(self._lru) > self._capacity:
                self._lru.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> None:
        """Drop every page."""
        with self._lock:
            self._lru.clear()
