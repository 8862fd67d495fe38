"""I/O accounting for the simulated disk.

The paper evaluates disk-resident indexes and reports the *number of
disk accesses* next to response time.  Every page access in this
library is counted in an :class:`IOStats` instance so experiments can
report logical reads, physical reads (buffer misses), buffer evictions
and writes, broken down by category (road network, inverted file,
R-tree, ...).

A read is charged when it is *settled*: the buffer pool's one LRU rule
(:meth:`~repro.storage.buffer.BufferPool.settle`) runs a list of page
keys through the pool in order and counts each hit, miss and eviction
into one :class:`IOStats`.  Inside a scope, :meth:`PageFile.read
<repro.storage.pagefile.PageFile.read>` only appends the page's key to
the scope's :attr:`IOStats.log`; the scope settles the whole log in one
pass when its counters are read (:meth:`IOStats.settle`,
:meth:`IOStats.snapshot`), when a nested scope opens, and when it
closes.  A read outside any scope settles at once, through the same
rule.  Hit or miss depends only on the pool's state and the order of
accesses, so a serial stream of queries counts exactly what charging
each read as it happens would.

Concurrency contract: one :class:`IOStats` is shared by every structure
of a database, including queries running on multiple threads.  A query
execution opens a per-thread *scope* (:meth:`IOStats.scoped`); the
reads and writes that thread issues land in the scope, giving exact
per-query I/O attribution without diffing shared counters, and are
folded into the global totals (under a lock) when the scope closes.
Each scope's log settles as one unit, so under interleaving a query's
hit/miss split is what a serial run in settle order would give; its
logical reads never vary.  Threads without an active scope (index
builds, loading, updates) settle into the global counters directly.
"""

from __future__ import annotations

import threading
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover — import cycle guard
    from .buffer import BufferPool

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


class _OpenScope(threading.local):
    """This thread's innermost open scope and its log (``None``: none)."""

    scope: Optional["IOStats"] = None
    log: Optional[List[Tuple[str, int]]] = None


@dataclass
class IOStats:
    """Mutable I/O counters shared by every structure of one database."""

    logical_reads: int = 0
    physical_reads: int = 0
    writes: int = 0
    buffer_hits: int = 0
    physical_by_category: Counter = field(default_factory=Counter)
    evictions: int = 0
    #: The pool whose LRU this object's reads settle against.
    pool: Optional["BufferPool"] = field(
        default=None, repr=False, compare=False
    )
    #: A scope's page reads not yet settled, as ``(file, page)`` keys in
    #: read order.  Always empty on the global totals.
    log: List[Tuple[str, int]] = field(
        default_factory=list, repr=False, compare=False
    )
    #: Per thread: the open scope and its log, which ``PageFile.read``
    #: appends to.
    current: _OpenScope = field(
        default_factory=_OpenScope, repr=False, compare=False
    )
    _merge_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def settle_unscoped(self, key: Tuple[str, int]) -> None:
        """Charge one read made outside any scope to the global totals."""
        with self._merge_lock:
            self.pool.settle((key,), self)

    def settle(self) -> "IOStats":
        """Charge this scope's logged reads, in order; returns ``self``.

        Afterwards every counter includes every read made so far.
        """
        if self.log:
            self.pool.settle(self.log, self)
            self.log.clear()
        return self

    def record_write(self, category: str) -> None:
        (self.current.scope or self).writes += 1

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

        Yields the scope; its counters are exact per-scope deltas once
        settled (:meth:`settle`, :meth:`snapshot`, or leaving the
        block).  On exit the scope settles, also when the block raises,
        and is folded into the global totals under a lock, so
        concurrent scopes on other threads never lose increments.
        Scopes nest per thread: opening one settles the outer scope
        first, and an inner scope shadows the outer one and folds into
        the globals, not the outer scope, on exit.
        """
        current = self.current
        previous = current.scope
        if previous is not None:
            previous.settle()
        scope = IOStats(pool=self.pool)
        current.scope, current.log = scope, scope.log
        try:
            yield scope
        finally:
            current.scope = previous
            current.log = None if previous is None else previous.log
            scope.settle()
            with self._merge_lock:
                self.absorb(scope)

    def snapshot(self) -> IOSnapshot:
        self.settle()
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
