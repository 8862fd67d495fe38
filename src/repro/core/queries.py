"""Query and result types of the public API."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..errors import QueryError
from ..network.graph import NetworkPosition
from ..network.objects import SpatioTextualObject
from ..storage.iostats import IOSnapshot

__all__ = [
    "SKQuery",
    "DiversifiedSKQuery",
    "ResultItem",
    "QueryStats",
    "SKResult",
    "DiversifiedResult",
    "require_on_edge",
]


def require_on_edge(network, position: NetworkPosition) -> None:
    """Raise :class:`QueryError` if ``position``'s offset lies past its
    edge's current weight: an expansion seeded there would start from a
    negative distance.  Planning checks every query with it, and a
    standing query re-checks at every refresh, since a reweight can
    shrink the edge beneath it."""
    if position.offset > network.edge(position.edge_id).weight:
        raise QueryError(
            f"offset {position.offset} lies beyond edge {position.edge_id}"
        )


@dataclass(frozen=True)
class SKQuery:
    """A boolean spatial keyword query on the road network (Def. §2.1).

    Retrieves every object containing *all* of ``terms`` within network
    distance ``delta_max`` of ``position``, nearest first.  ``limit``
    keeps only the first ``limit`` of them — the boolean kNN query: the
    expansion stream arrives in non-decreasing distance, so its
    ``limit``-th arrival is the ``limit``-th nearest match, and the
    expansion stops at the node whose settling finalised it.
    """

    position: NetworkPosition
    terms: FrozenSet[str]
    delta_max: float
    limit: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.terms:
            raise QueryError("an SK query needs at least one keyword")
        if not self.delta_max > 0:  # rejects nan as well
            raise QueryError("delta_max must be positive")
        if self.limit is not None and self.limit <= 0:
            raise QueryError("limit must be positive")

    @classmethod
    def create(
        cls,
        position: NetworkPosition,
        terms: Iterable[str],
        delta_max: float,
        limit: Optional[int] = None,
    ) -> "SKQuery":
        return cls(position, frozenset(terms), delta_max, limit)


@dataclass(frozen=True)
class DiversifiedSKQuery:
    """A diversified SK query: SK constraints plus ``k`` and ``λ``.

    ``lambda_`` weights relevance against spatial diversity in the
    max-sum objective (see :mod:`repro.core.objective`).
    """

    position: NetworkPosition
    terms: FrozenSet[str]
    delta_max: float
    k: int
    lambda_: float = 0.8

    def __post_init__(self) -> None:
        if not self.terms:
            raise QueryError("a diversified SK query needs at least one keyword")
        if not self.delta_max > 0:  # rejects nan as well
            raise QueryError("delta_max must be positive")
        if self.k < 2:
            raise QueryError("k must be at least 2")
        if not 0.0 <= self.lambda_ <= 1.0:
            raise QueryError("lambda must lie in [0, 1]")

    @classmethod
    def create(
        cls,
        position: NetworkPosition,
        terms: Iterable[str],
        delta_max: float,
        k: int,
        lambda_: float = 0.8,
    ) -> "DiversifiedSKQuery":
        return cls(position, frozenset(terms), delta_max, k, lambda_)


@dataclass(frozen=True)
class ResultItem:
    """One retrieved object with its network distance from the query."""

    object: SpatioTextualObject
    distance: float


@dataclass
class QueryStats:
    """Measurements of one query execution.

    All counters are *per-query*: the pairwise computer is the query's
    own, and shared machinery (the buffer pool, I/O statistics) counts
    into a per-execution scope.  ``distance_cache_hits`` / ``_misses``
    count lookups of the node maps the query's computer keeps.
    ``stage_seconds`` maps stage names
    (``expansion``, ``object_loading``, ``signature``,
    ``pairwise_dijkstra``, ``maintenance``, ``finalise``, ...) to wall
    seconds; stages may nest, so they need not sum to ``wall_seconds``.
    ``object_loading`` times the loader calls only: on SIF and SIF-G the
    fetches of edges that passed the expansion's inline signature test
    (see :attr:`~repro.core.ine.ExpansionStats.load_seconds`).
    """

    wall_seconds: float = 0.0
    nodes_accessed: int = 0
    edges_accessed: int = 0
    objects_loaded: int = 0
    false_hit_objects: int = 0
    candidates: int = 0
    pairwise_dijkstras: int = 0
    #: Exact θ values COM computed from a network pair distance: each
    #: distinct pair of the bootstrap set once, then one per opponent an
    #: arrival's (or a re-queued core object's) θ upper bound did not
    #: rule out.  0 for SEQ.
    theta_evaluations: int = 0
    expansion_terminated_early: bool = False
    io: Optional[IOSnapshot] = None
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    distance_cache_hits: int = 0
    distance_cache_misses: int = 0
    buffer_evictions: int = 0
    distance_backend: str = "dijkstra"
    #: Data epoch the query executed against (``Database.data_version``
    #: pinned at context entry); 0 on a never-updated database.
    epoch: int = 0

    @property
    def physical_reads(self) -> int:
        return self.io.physical_reads if self.io else 0


@dataclass
class SKResult:
    """Result of Algorithm 3: matching objects ordered by distance."""

    items: List[ResultItem]
    stats: QueryStats = field(default_factory=QueryStats)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def object_ids(self) -> Tuple[int, ...]:
        return tuple(item.object.object_id for item in self.items)


@dataclass
class DiversifiedResult:
    """Result of a diversified SK search (SEQ or COM)."""

    items: List[ResultItem]
    objective_value: float
    method: str
    stats: QueryStats = field(default_factory=QueryStats)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def object_ids(self) -> Tuple[int, ...]:
        return tuple(item.object.object_id for item in self.items)
