"""Shared benchmark harness: dataset/index caches and sweep helpers.

Building a dataset and its four indexes is the expensive part of every
experiment, so the harness memoises them per (profile, overrides) key.
Benchmarks get small-but-faithful datasets by default; the environment
variable ``REPRO_BENCH_SCALE`` scales every dataset up or down without
touching the benchmark code.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

from ..core.database import Database
from ..datasets.catalog import build_dataset
from ..index.base import ObjectIndex
from ..workloads.queries import (
    WorkloadConfig,
    generate_diversified_queries,
    generate_sk_queries,
)
from ..workloads.runner import (
    WorkloadReport,
    run_diversified_workload,
    run_sk_workload,
)

__all__ = ["BenchContext", "bench_scale"]


def bench_scale(default: float = 1.0) -> float:
    """Dataset scale factor, overridable via ``REPRO_BENCH_SCALE``."""
    raw = os.environ.get("REPRO_BENCH_SCALE")
    if not raw:
        return default
    return float(raw)


class BenchContext:
    """Caches databases and indexes across benchmark cases.

    Every database is pinned to the ``dijkstra`` distance backend: the
    figure benchmarks reproduce the paper's I/O shape, in which the
    pairwise Dijkstras of a diversified query walk CCAM pages and are
    charged for them (Figs 11–16).  An ablation that compares backends
    selects them itself and returns to ``dijkstra``.

    A database's own buffer rule counts every index built on it, so it
    depends on what the session built first.  Every measurement here
    runs from :meth:`cold_buffer` instead: an empty buffer sized from
    the network plus the measured index alone, which makes a figure's
    page columns the same whether its benchmark runs alone or in the
    full suite.
    """

    def __init__(self, scale: Optional[float] = None) -> None:
        self.scale = scale if scale is not None else bench_scale()
        self._dbs: Dict[Tuple, Database] = {}
        self._indexes: Dict[Tuple, ObjectIndex] = {}

    def database(self, profile: str, **overrides) -> Database:
        key = (profile, tuple(sorted(overrides.items())))
        db = self._dbs.get(key)
        if db is None:
            db = build_dataset(profile, scale=self.scale, **overrides)
            db.use_distance_backend("dijkstra")
            self._dbs[key] = db
        return db

    def index(self, profile: str, kind: str, db_overrides: Optional[dict] = None,
              **index_kwargs) -> ObjectIndex:
        db_overrides = db_overrides or {}
        key = (
            profile,
            tuple(sorted(db_overrides.items())),
            kind,
            tuple(sorted(index_kwargs.items())),
        )
        index = self._indexes.get(key)
        if index is None:
            db = self.database(profile, **db_overrides)
            index = db.build_index(kind, **index_kwargs)
            self._indexes[key] = index
        return index

    @staticmethod
    def cold_buffer(db: Database, index: ObjectIndex) -> None:
        """Empty ``db``'s buffer and size it for ``index`` alone
        (:meth:`~repro.core.database.Database.buffer_capacity`)."""
        db.disk.resize_buffer(db.buffer_capacity(index))
        db.disk.clear_buffer()

    # ------------------------------------------------------------------
    # Sweep helpers
    # ------------------------------------------------------------------
    def sk_report(
        self,
        profile: str,
        kind: str,
        config: WorkloadConfig,
        db_overrides: Optional[dict] = None,
        **index_kwargs,
    ) -> WorkloadReport:
        db = self.database(profile, **(db_overrides or {}))
        index = self.index(profile, kind, db_overrides=db_overrides, **index_kwargs)
        queries = generate_sk_queries(db, config)
        self.cold_buffer(db, index)
        return run_sk_workload(db, index, queries, label=kind.upper())

    def diversified_report(
        self,
        profile: str,
        kind: str,
        method: str,
        config: WorkloadConfig,
        db_overrides: Optional[dict] = None,
        enable_pruning: bool = True,
        **index_kwargs,
    ) -> WorkloadReport:
        db = self.database(profile, **(db_overrides or {}))
        index = self.index(profile, kind, db_overrides=db_overrides, **index_kwargs)
        queries = generate_diversified_queries(db, config)
        self.cold_buffer(db, index)
        return run_diversified_workload(
            db, index, queries, method=method, enable_pruning=enable_pruning
        )
