"""Boolean spatial keyword k-nearest-neighbour search.

The paper evaluates the *range* form of the boolean SK query (objects
within ``δmax``), but its INE machinery supports the kNN form directly
— and the surrounding literature (inverted R-tree [23], IR-tree [11])
is phrased in terms of kNN.  This module provides it as a first-class
query: the ``k`` matching objects closest to the query location.

Implementation: the expansion stream already yields matching objects in
non-decreasing network distance, so kNN is "take k and close the
generator"; the search radius grows adaptively when a horizon guess is
given, keeping the expansion bounded on sparse results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import islice
from typing import FrozenSet, Iterable, List, Optional

from ..errors import QueryError
from ..index.base import ObjectIndex
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
    to unbounded via a large radius); ``initial_radius`` seeds the
    adaptive radius doubling.
    """

    position: NetworkPosition
    terms: FrozenSet[str]
    k: int
    horizon: float = 1e9
    initial_radius: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.terms:
            raise QueryError("a kNN query needs at least one keyword")
        if self.k <= 0:
            raise QueryError("k must be positive")
        if not self.horizon > 0:  # rejects nan as well
            raise QueryError("horizon must be positive")
        # knn_search doubles the radius until k matches arrive: from 0
        # (or below, or nan) it never reaches the horizon.
        if self.initial_radius is not None and not self.initial_radius > 0:
            raise QueryError("initial_radius must be positive")

    @classmethod
    def create(
        cls,
        position: NetworkPosition,
        terms: Iterable[str],
        k: int,
        horizon: float = 1e9,
        initial_radius: Optional[float] = None,
    ) -> "SKkNNQuery":
        return cls(position, frozenset(terms), k, horizon, initial_radius)


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
) -> SKkNNResult:
    """kNN over the INE stream with adaptive radius doubling.

    Each round expands with radius ``r``; if fewer than ``k`` matches
    arrive the radius doubles (up to the horizon).  Rounds restart the
    expansion — acceptable because the buffer pool makes re-traversal
    of the inner region cheap, exactly the CCAM locality argument.
    A traced run records one ``knn.round`` span per radius attempt.
    """
    radius = query.initial_radius
    if radius is None:
        # A reasonable first guess: a few average edge weights out.
        total = sum(e.weight for e in network.edges())
        radius = 8.0 * total / max(1, network.num_edges)
    radius = min(radius, query.horizon)

    stats = QueryStats()
    attempt = 0
    while True:
        t0 = time.perf_counter()
        expansion = INEExpansion(
            provider, network, index, query.position, query.terms, radius,
            tracer=tracer,
        )
        items = list(islice(expansion.run(), query.k))
        stats.nodes_accessed += expansion.stats.nodes_accessed
        stats.edges_accessed += expansion.stats.edges_accessed
        if tracer.enabled:
            tracer.add_span(
                "knn.round", time.perf_counter() - t0, start=t0,
                attempt=attempt, radius=radius, matches=len(items),
                nodes_settled=expansion.stats.nodes_accessed,
            )
        if len(items) >= query.k or radius >= query.horizon:
            stats.candidates = len(items)
            return SKkNNResult(items, stats)
        radius = min(radius * 2.0, query.horizon)
        attempt += 1
