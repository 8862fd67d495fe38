"""I/O accounting for the simulated disk.

The paper evaluates disk-resident indexes and reports the *number of
disk accesses* next to response time.  Every page access in this
library flows through an :class:`IOStats` instance so experiments can
report logical reads, physical reads (buffer misses), buffer evictions
and writes, broken down by category (road network, inverted file,
R-tree, ...).  It is the one place page accounting lives: the buffer
pool only decides hit or miss and reports its evictions here.

Concurrency contract: one :class:`IOStats` is shared by every structure
of a database, including queries running on multiple threads.  A query
execution opens a per-thread *scope* (:meth:`IOStats.scoped`); reads,
writes and evictions issued by that thread land in the scope, giving
exact per-query I/O attribution without diffing shared counters, and
are folded into the global totals (under a lock) when the scope closes.
Threads without an active scope (index builds, loading) update the
global counters directly.
"""

from __future__ import annotations

import threading
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict

__all__ = ["IOStats", "IOSnapshot"]


@dataclass(frozen=True)
class IOSnapshot:
    """An immutable snapshot of the counters, used for deltas."""

    logical_reads: int
    physical_reads: int
    writes: int
    buffer_hits: int
    physical_by_category: Dict[str, int]
    evictions: int = 0

    def __sub__(self, other: "IOSnapshot") -> "IOSnapshot":
        by_cat = Counter(self.physical_by_category)
        by_cat.subtract(other.physical_by_category)
        return IOSnapshot(
            logical_reads=self.logical_reads - other.logical_reads,
            physical_reads=self.physical_reads - other.physical_reads,
            writes=self.writes - other.writes,
            buffer_hits=self.buffer_hits - other.buffer_hits,
            physical_by_category={k: v for k, v in by_cat.items() if v},
            evictions=self.evictions - other.evictions,
        )


@dataclass
class IOStats:
    """Mutable I/O counters shared by every structure of one database."""

    logical_reads: int = 0
    physical_reads: int = 0
    writes: int = 0
    buffer_hits: int = 0
    physical_by_category: Counter = field(default_factory=Counter)
    evictions: int = 0
    _scopes: threading.local = field(
        default_factory=threading.local, repr=False, compare=False
    )
    _merge_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def _target(self) -> "IOStats":
        """Where this thread's increments land: its scope, or self."""
        return getattr(self._scopes, "scope", None) or self

    def record_read(self, category: str, hit: bool) -> None:
        """Record one logical page read; ``hit`` marks a buffer hit."""
        target = self._target()
        target.logical_reads += 1
        if hit:
            target.buffer_hits += 1
        else:
            target.physical_reads += 1
            target.physical_by_category[category] += 1

    def record_write(self, category: str) -> None:
        self._target().writes += 1

    def record_eviction(self) -> None:
        """Record one buffer eviction caused by this thread's access."""
        self._target().evictions += 1

    def absorb(self, other: "IOStats") -> None:
        """Add another stats object's totals into this one."""
        self.logical_reads += other.logical_reads
        self.physical_reads += other.physical_reads
        self.writes += other.writes
        self.buffer_hits += other.buffer_hits
        self.physical_by_category.update(other.physical_by_category)
        self.evictions += other.evictions

    @contextmanager
    def scoped(self):
        """Collect this thread's I/O into a fresh :class:`IOStats`.

        Yields the scope; its counters are exact per-scope deltas.  On
        exit the scope is folded into the global totals under a lock,
        so concurrent scopes on other threads never lose increments.
        Scopes nest per thread (inner scopes shadow outer ones and fold
        into the globals, not the outer scope, on exit).
        """
        scope = IOStats()
        previous = getattr(self._scopes, "scope", None)
        self._scopes.scope = scope
        try:
            yield scope
        finally:
            self._scopes.scope = previous
            with self._merge_lock:
                self.absorb(scope)

    def snapshot(self) -> IOSnapshot:
        return IOSnapshot(
            logical_reads=self.logical_reads,
            physical_reads=self.physical_reads,
            writes=self.writes,
            buffer_hits=self.buffer_hits,
            physical_by_category=dict(self.physical_by_category),
            evictions=self.evictions,
        )

    def reset(self) -> None:
        self.logical_reads = 0
        self.physical_reads = 0
        self.writes = 0
        self.buffer_hits = 0
        self.physical_by_category.clear()
        self.evictions = 0
