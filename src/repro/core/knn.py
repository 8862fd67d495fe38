"""Boolean spatial keyword k-nearest-neighbour search.

The paper evaluates the *range* form of the boolean SK query (objects
within ``δmax``), but its INE machinery supports the kNN form directly
— and the surrounding literature (inverted R-tree [23], IR-tree [11])
is phrased in terms of kNN.  This module provides it as a first-class
query: the ``k`` matching objects closest to the query location.

Implementation: the expansion stream already yields matching objects in
non-decreasing network distance, so kNN is "take k and close the
generator" — one expansion, bounded by the query's ``horizon``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import islice
from typing import FrozenSet, Iterable, List, Optional

from ..errors import QueryError
from ..index.base import LoadCounters, ObjectIndex
from ..network.distance import AdjacencyProvider
from ..network.graph import NetworkPosition, RoadNetwork
from ..obs.tracing import NULL_TRACER
from .ine import INEExpansion
from .queries import QueryStats, ResultItem

__all__ = ["SKkNNQuery", "SKkNNResult", "knn_search"]


@dataclass(frozen=True)
class SKkNNQuery:
    """Find the ``k`` closest objects containing all ``terms``.

    ``horizon`` bounds how far the expansion may ever reach (defaults
    to unbounded via a large radius).
    """

    position: NetworkPosition
    terms: FrozenSet[str]
    k: int
    horizon: float = 1e9

    def __post_init__(self) -> None:
        if not self.terms:
            raise QueryError("a kNN query needs at least one keyword")
        if self.k <= 0:
            raise QueryError("k must be positive")
        if not self.horizon > 0:  # rejects nan as well
            raise QueryError("horizon must be positive")

    @classmethod
    def create(
        cls,
        position: NetworkPosition,
        terms: Iterable[str],
        k: int,
        horizon: float = 1e9,
    ) -> "SKkNNQuery":
        return cls(position, frozenset(terms), k, horizon)


@dataclass
class SKkNNResult:
    """kNN result: up to ``k`` items ordered by network distance."""

    items: List[ResultItem]
    stats: QueryStats = field(default_factory=QueryStats)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    @property
    def kth_distance(self) -> float:
        """Distance of the farthest returned item (inf when empty)."""
        return self.items[-1].distance if self.items else float("inf")


def knn_search(
    provider: AdjacencyProvider,
    network: RoadNetwork,
    index: ObjectIndex,
    query: SKkNNQuery,
    tracer=NULL_TRACER,
    counters: Optional[LoadCounters] = None,
) -> SKkNNResult:
    """kNN: the first ``k`` items of one INE expansion out to ``horizon``.

    The stream arrives in non-decreasing distance, so the k-th arrival
    is the k-th nearest match; closing the generator there stops the
    expansion at the node whose settling finalised it.  The stats carry
    the SK query's stages: ``expansion`` and its ``object_loading``.
    """
    start = time.perf_counter()
    expansion = INEExpansion(
        provider, network, index, query.position, query.terms,
        query.horizon, counters, tracer,
    )
    stream = expansion.run()
    items = list(islice(stream, query.k))
    stream.close()
    stats = QueryStats(
        nodes_accessed=expansion.stats.nodes_accessed,
        edges_accessed=expansion.stats.edges_accessed,
        candidates=len(items),
        stage_seconds={
            "expansion": time.perf_counter() - start,
            "object_loading": expansion.stats.load_seconds,
        },
    )
    return SKkNNResult(items, stats)
