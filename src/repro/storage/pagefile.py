"""Simulated disk: pages, page files and the disk manager.

The paper's experiments run against disk-resident structures with a
4096-byte page size and an LRU buffer sized at 2 % of the dataset.  We
reproduce that environment *logically*: pages live in memory, but every
access is routed through a shared :class:`~repro.storage.buffer.BufferPool`
and counted by :class:`~repro.storage.iostats.IOStats`, so the reported
"number of disk accesses" matches what a disk-resident implementation
would incur.

:meth:`PageFile.read` inside a query checks the page number and appends
the page's ``(file, page)`` key to the thread's open I/O scope; the
scope runs its whole log through the pool's LRU later, in one pass
(see :mod:`repro.storage.iostats` for when).  A read outside any scope
settles at once through the same rule.

Payloads are ordinary Python objects; each page also records an
estimated on-disk byte size used to derive index sizes (Fig. 6(c)) and
page fan-outs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..errors import StorageError
from .buffer import BufferPool

__all__ = ["PAGE_SIZE", "Page", "PageFile", "DiskManager"]

#: Fixed page size in bytes, matching the paper's experimental setup.
PAGE_SIZE = 4096


@dataclass
class Page:
    """One simulated disk page."""

    file_name: str
    page_no: int
    payload: Any
    size_bytes: int = PAGE_SIZE


class PageFile:
    """An append-only collection of pages belonging to one structure.

    A page file has a *category* label (``"network"``, ``"inverted"``,
    ``"rtree"``, ...) used to attribute physical I/O in the statistics.
    """

    def __init__(self, name: str, category: str, disk: "DiskManager") -> None:
        self.name = name
        self.category = category
        self._disk = disk
        self._pages: List[Page] = []
        self._current = disk.stats.current

    def __len__(self) -> int:
        return len(self._pages)

    @property
    def num_pages(self) -> int:
        return len(self._pages)

    @property
    def size_bytes(self) -> int:
        """Total on-disk size: every allocated page occupies a full page."""
        return len(self._pages) * PAGE_SIZE

    def allocate(self, payload: Any, size_bytes: int = PAGE_SIZE) -> int:
        """Append a new page; returns its page number.

        ``size_bytes`` is the estimated payload size.  Callers are
        responsible for packing payloads so they do not exceed
        :data:`PAGE_SIZE`; the estimate is not enforced because several
        structures (e.g. R-tree roots) are legitimately tiny.
        """
        page_no = len(self._pages)
        self._pages.append(Page(self.name, page_no, payload, size_bytes))
        self._disk.stats.record_write(self.category)
        return page_no

    def read(self, page_no: int) -> Any:
        """Read a page through the buffer pool; returns its payload.

        Inside a scope the read is logged, to be settled with the rest
        of the scope's reads; outside one it settles now.
        """
        pages = self._pages
        if not 0 <= page_no < len(pages):
            raise StorageError(
                f"page {page_no} out of range for file {self.name!r} "
                f"({len(pages)} pages)"
            )
        log = self._current.log
        if log is None:
            self._disk.stats.settle_unscoped((self.name, page_no))
        else:
            log.append((self.name, page_no))
        return pages[page_no].payload

    def read_unbuffered(self, page_no: int) -> Any:
        """Read a page without touching buffer or counters.

        Used only by index *builders* which would run off-line in a real
        deployment and must not pollute query-time statistics.
        """
        return self._pages[page_no].payload

    def rewrite(
        self,
        page_no: int,
        payload: Any = None,
        size_bytes: Optional[int] = None,
    ) -> None:
        """Overwrite an existing page in place; charged as one write.

        ``payload=None`` keeps the current payload object (the caller
        mutated it through :meth:`read_unbuffered` and only needs the
        write accounted); ``size_bytes=None`` keeps the recorded size.
        This is the update path's counterpart to :meth:`allocate` —
        page numbers never move, so references held by trees and
        node-page maps stay valid.
        """
        if not 0 <= page_no < len(self._pages):
            raise StorageError(
                f"page {page_no} out of range for file {self.name!r} "
                f"({len(self._pages)} pages)"
            )
        page = self._pages[page_no]
        if payload is not None:
            page.payload = payload
        if size_bytes is not None:
            page.size_bytes = size_bytes
        self._disk.stats.record_write(self.category)


class DiskManager:
    """Owns the page files, the shared buffer pool and the I/O stats."""

    def __init__(self, buffer_pages: int = 1024) -> None:
        self.buffer = BufferPool(capacity=buffer_pages)
        self.stats = self.buffer.stats
        self._files: Dict[str, PageFile] = {}

    def create_file(self, name: str, category: str) -> PageFile:
        if name in self._files:
            raise StorageError(f"page file {name!r} already exists")
        pf = PageFile(name, category, self)
        self._files[name] = pf
        self.buffer.categories[name] = category
        return pf

    def files(self) -> Tuple[PageFile, ...]:
        return tuple(self._files.values())

    def resize_buffer(self, capacity_pages: int) -> None:
        """Resize the LRU buffer; shrinking evicts least recently used
        pages first.  A :class:`~repro.core.database.Database` calls it
        with ``max(8, 2 % of the pages on disk)`` at ``freeze()`` and
        after every ``build_index()``, so index pages count too."""
        self.buffer.resize(capacity_pages)

    def clear_buffer(self) -> None:
        """Drop every buffered page (cold-cache experiments)."""
        self.buffer.clear()
