"""LRU buffer pool for the simulated disk.

The paper uses "an LRU memory buffer whose size is set to 2% of the
network dataset size".  Keys are ``(file_name, page_no)`` pairs shared
across every structure of a database, so hot pages of the road network
compete with inverted-file pages exactly as they would in one real
buffer pool.

The pool counts nothing itself: it decides hit or miss, and reports
each eviction to the database's :class:`~repro.storage.iostats.IOStats`,
which attributes it to the asking thread's query like every page read.

Concurrency contract: the pool is shared by queries running on
multiple threads, so every access runs under one internal lock — the
LRU order book can never be observed mid-eviction.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable, Optional, Tuple

from .iostats import IOStats

__all__ = ["BufferPool"]


class BufferPool:
    """An LRU cache of page identifiers.

    The pool stores only page *identities* (payloads stay in their page
    files); its job is to decide whether an access is a buffer hit or a
    physical read, which is all the I/O model needs.  Evictions are
    recorded in ``stats`` (a private :class:`IOStats` when omitted).
    """

    def __init__(
        self, capacity: int = 1024, stats: Optional[IOStats] = None
    ) -> None:
        if capacity < 0:
            raise ValueError("buffer capacity must be non-negative")
        self._capacity = capacity
        self._lru: "OrderedDict[Hashable, None]" = OrderedDict()
        self._lock = threading.Lock()
        self._stats = IOStats() if stats is None else stats

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._lru)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._lru

    def access(self, key: Tuple[str, int]) -> bool:
        """Touch a page; returns ``True`` on a buffer hit.

        On a miss the page is admitted and the least recently used page
        is evicted if the pool is full.  A zero-capacity pool never
        hits (every access is a physical read).
        """
        with self._lock:
            if self._capacity == 0:
                return False
            if key in self._lru:
                self._lru.move_to_end(key)
                return True
            self._lru[key] = None
            if len(self._lru) > self._capacity:
                self._lru.popitem(last=False)
                self._stats.record_eviction()
            return False

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
                self._stats.record_eviction()

    def clear(self) -> None:
        """Drop every page."""
        with self._lock:
            self._lru.clear()
