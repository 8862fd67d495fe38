"""Metric record sinks: where per-query records go.

A *sink* receives JSON-able dict records via ``emit(record)`` and may
implement ``close()``.  :class:`JsonLinesSink` appends one JSON object
per line to a file (the CLI's ``--metrics <path>``), flushing on every
record so a killed run still leaves usable data.

:class:`RecordRing` is the container the slow-query log and the flight
recorder are built on: the most recent records in memory, each
optionally streamed to a :class:`JsonLinesSink` as it arrives.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from pathlib import Path
from typing import Deque, Dict, List, Optional, Protocol, Union

__all__ = ["Sink", "JsonLinesSink", "RecordRing"]


class Sink(Protocol):
    """Anything that can consume metric records."""

    def emit(self, record: Dict) -> None:
        ...


def _json_default(value):
    """Last-resort serialisation for non-JSON values (inf, numpy, ...)."""
    try:
        return float(value)
    except (TypeError, ValueError):
        return str(value)


class JsonLinesSink:
    """Appends records to a file, one JSON object per line."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh: Optional[object] = self.path.open("a", encoding="utf-8")
        self.records_written = 0

    def emit(self, record: Dict) -> None:
        if self._fh is None:
            raise ValueError(f"sink for {self.path} is closed")
        json.dump(record, self._fh, default=_json_default)
        self._fh.write("\n")
        self._fh.flush()
        self.records_written += 1

    @property
    def closed(self) -> bool:
        return self._fh is None

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonLinesSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class RecordRing:
    """Thread-safe bounded ring of records with an optional file sink.

    The most recent :attr:`MAX_RECORDS` records are kept in memory
    (``dropped`` counts the evicted); ``path`` also streams every
    record to a JSON-lines file, flushing per record.  Subclasses number
    their records under :attr:`_lock` and append with :meth:`_push`, so
    a record's number and its place in ring and file agree.
    """

    #: Each subclass sets its ring's capacity.
    MAX_RECORDS: int

    def __init__(self, path) -> None:
        self._records: Deque[Dict] = deque(maxlen=self.MAX_RECORDS)
        self._lock = threading.Lock()
        self._sink = JsonLinesSink(path) if path is not None else None
        self.dropped = 0

    @property
    def path(self):
        return self._sink.path if self._sink is not None else None

    def _push(self, record: Dict) -> None:
        """Append one record; the caller holds :attr:`_lock`.

        After :meth:`close` records land in memory only: a query in
        flight on another thread when its log is uninstalled must not
        raise on a closed file.
        """
        if len(self._records) == self.MAX_RECORDS:
            self.dropped += 1
        self._records.append(record)
        if self._sink is not None and not self._sink.closed:
            self._sink.emit(record)

    def records(self) -> List[Dict]:
        """Ring contents, oldest first (snapshot copy)."""
        with self._lock:
            return list(self._records)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def close(self) -> None:
        """Close the file sink (under the lock: never mid-record)."""
        with self._lock:
            if self._sink is not None:
                self._sink.close()
