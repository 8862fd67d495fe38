"""LRU buffer pool for the simulated disk.

The paper uses "an LRU memory buffer whose size is set to 2% of the
network dataset size".  Keys are ``(file_name, page_no)`` pairs shared
across every structure of a database, so hot pages of the road network
compete with inverted-file pages exactly as they would in one real
buffer pool.

Concurrency contract: the pool is shared by queries running on
multiple threads, so every access runs under one internal lock — the
LRU order book can never be observed mid-eviction and the lifetime
hit/miss/eviction counters never lose increments.  Per-query eviction
attribution uses per-thread scopes (:meth:`BufferPool.eviction_scope`);
hits and misses are already attributed per query by the I/O layer
(:meth:`repro.storage.iostats.IOStats.scoped`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Hashable, Tuple

__all__ = ["BufferPool"]


class _EvictionScope:
    """Counts the evictions triggered by one thread's accesses."""

    __slots__ = ("evictions",)

    def __init__(self) -> None:
        self.evictions = 0


class BufferPool:
    """A counting LRU cache of page identifiers.

    The pool stores only page *identities* (payloads stay in their page
    files); its job is to decide whether an access is a buffer hit or a
    physical read, which is all the I/O model needs.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 0:
            raise ValueError("buffer capacity must be non-negative")
        self._capacity = capacity
        self._lru: "OrderedDict[Hashable, None]" = OrderedDict()
        self._lock = threading.Lock()
        self._scopes = threading.local()
        #: Lifetime counters, sampled as per-query deltas by the
        #: metrics layer (plain ints keep the hot path allocation-free).
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._lru)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._lru

    def _record_eviction(self) -> None:
        self.evictions += 1
        scope = getattr(self._scopes, "scope", None)
        if scope is not None:
            scope.evictions += 1

    @contextmanager
    def eviction_scope(self):
        """Attribute evictions caused by this thread's accesses.

        Yields an object whose ``evictions`` attribute counts only the
        evictions this thread triggered while the scope was active —
        the per-query delta, exact even when other threads evict
        concurrently.  Scopes nest per thread (the innermost wins).
        """
        scope = _EvictionScope()
        previous = getattr(self._scopes, "scope", None)
        self._scopes.scope = scope
        try:
            yield scope
        finally:
            self._scopes.scope = previous

    def access(self, key: Tuple[str, int]) -> bool:
        """Touch a page; returns ``True`` on a buffer hit.

        On a miss the page is admitted and the least recently used page
        is evicted if the pool is full.  A zero-capacity pool never
        hits (every access is a physical read).
        """
        with self._lock:
            if self._capacity == 0:
                self.misses += 1
                return False
            if key in self._lru:
                self._lru.move_to_end(key)
                self.hits += 1
                return True
            self.misses += 1
            self._lru[key] = None
            if len(self._lru) > self._capacity:
                self._lru.popitem(last=False)
                self._record_eviction()
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
                self._record_eviction()

    def clear(self) -> None:
        """Drop every page; lifetime hit/miss/eviction counters remain."""
        with self._lock:
            self._lru.clear()
