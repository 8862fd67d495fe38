"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so
callers can catch library failures with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class GraphError(ReproError):
    """Raised for malformed road networks (unknown nodes, bad weights)."""


class StorageError(ReproError):
    """Raised by the simulated disk substrate (bad page ids, closed files)."""


class QueryError(ReproError):
    """Raised for invalid queries (empty keyword set, bad parameters)."""


class DatasetError(ReproError):
    """Raised by dataset generators and loaders."""

