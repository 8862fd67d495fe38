"""Query planning: turn (query, index) into an executable QueryPlan.

A :class:`QueryPlan` is a small, immutable description of how one
query will run — kind, algorithm, index — with cost hints derived from
the dataset's statistics and the query keywords' document frequencies.
It is pure metadata: building one touches no index pages and runs no
Dijkstra.  The plan decides nothing the query has not yet seen: an
un-pinned diversified plan at ``λ > ½`` (``"auto"``; at ``λ ≤ ½`` SEQ)
leaves SEQ vs COM to the pool the expansion realises
(:mod:`repro.core.diversified_search`), and the
hints' ``estimated_matches`` is a prediction to read against
``stats.candidates``.  The executor
(:class:`~repro.engine.executor.QueryEngine`) consumes plans;
``repro explain`` renders them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Tuple

from ..core.diversified_search import SWITCH_FACTOR
from ..core.queries import DiversifiedSKQuery, SKQuery, require_on_edge
from ..errors import QueryError
from ..index.base import ObjectIndex

if TYPE_CHECKING:  # pragma: no cover — import cycle guard
    from ..core.database import Database

__all__ = ["CostHints", "QueryPlan", "plan_sk", "plan_diversified"]

#: Algorithms the executor understands, per query kind.
_ALGORITHMS = {
    "sk": ("ine",),
    "diversified": ("seq", "com", "auto"),
}


@dataclass(frozen=True)
class CostHints:
    """Planner-time cost estimates for one query.

    All numbers derive from the catalogue statistics that
    :class:`~repro.network.objects.ObjectStore` maintains as objects
    are added and removed (object count, vocabulary size, per-term
    document frequency) — nothing here reads index pages or objects.
    ``estimated_matches`` assumes keyword independence:
    ``N · Π(df_t / N)`` over the query terms, the textbook conjunctive
    selectivity estimate; the rarest term bounds it from above.
    """

    num_objects: int
    num_edges: int
    vocabulary_size: int
    #: ``(term, document frequency)`` pairs, rarest first.
    term_frequencies: Tuple[Tuple[str, int], ...]
    #: Estimated objects satisfying the conjunctive keyword constraint.
    estimated_matches: float
    #: ``estimated_matches / num_objects`` (0 on an empty store).
    selectivity: float
    #: How pairwise network distances will be evaluated: ``"csgraph"``
    #: (bounded Dijkstras in C, in memory) or ``"dijkstra"`` (the same,
    #: charging the CCAM page of each settled node: the paper's I/O
    #: model).
    distance_backend: str = "dijkstra"
    #: Data epoch the hints were computed at.  A plan built before an
    #: update executes against newer statistics; ``repro explain`` and
    #: slow-query triage can see the skew.
    data_version: int = 0
    #: Journal length at plan time — how dynamic this database has been.
    #: Many recent updates mean catalogue statistics are more likely
    #: to be stale.
    recent_updates: int = 0


@dataclass(frozen=True)
class QueryPlan:
    """An executable description of one query.

    ``label`` (index kind + algorithm, e.g. ``"SIF/COM"``) is what the
    metrics layer records per query, so workload snapshots from
    mixed-plan runs stay attributable.
    """

    kind: str  # "sk" | "diversified"
    query: object
    index: ObjectIndex = field(repr=False)
    algorithm: str
    enable_pruning: bool = True
    hints: Optional[CostHints] = None
    #: Why the planner picked ``algorithm`` (shown by ``repro explain``).
    rationale: str = ""

    def __post_init__(self) -> None:
        allowed = _ALGORITHMS.get(self.kind)
        if allowed is None:
            raise QueryError(f"unknown plan kind {self.kind!r}")
        if self.algorithm not in allowed:
            raise QueryError(
                f"algorithm {self.algorithm!r} invalid for kind "
                f"{self.kind!r}; expected one of {allowed}"
            )

    @property
    def label(self) -> str:
        """Index kind + algorithm, the per-query attribution label."""
        return f"{self.index.name}/{self.algorithm.upper()}"

    def describe(self) -> str:
        """Multi-line rendering for ``repro explain``."""
        q = self.query
        lines = [f"QUERY PLAN  [{self.label}]"]
        lines.append(f"  kind: {self.kind}    algorithm: {self.algorithm}")
        terms = "+".join(sorted(q.terms)) if getattr(q, "terms", None) else "?"
        params = [f"terms={terms}"]
        if isinstance(q, (SKQuery, DiversifiedSKQuery)):
            params.append(f"δmax={q.delta_max:g}")
        if isinstance(q, DiversifiedSKQuery):
            params.append(f"k={q.k}")
            params.append(f"λ={q.lambda_:g}")
        if isinstance(q, SKQuery) and q.limit is not None:
            params.append(f"limit={q.limit}")
        lines.append("  query: " + "  ".join(params))
        if self.kind == "diversified":
            backend = self.hints.distance_backend if self.hints else "dijkstra"
            lines.append(
                f"  pruning: {'on' if self.enable_pruning else 'off'}"
                f"    distance backend: {backend}"
            )
        h = self.hints
        if h is not None:
            freq = ", ".join(f"{t}:{n}" for t, n in h.term_frequencies)
            lines.append(
                f"  cost hints: {h.num_objects} objects, "
                f"df[{freq}], est. matches "
                f"{h.estimated_matches:.1f} "
                f"(selectivity {h.selectivity:.2%})"
            )
            if h.data_version or h.recent_updates:
                lines.append(
                    f"  dynamic: epoch {h.data_version}, "
                    f"{h.recent_updates} journaled updates"
                )
        if self.rationale:
            lines.append(f"  rationale: {self.rationale}")
        return "\n".join(lines)


def _cost_hints(db: "Database", query) -> CostHints:
    # O(|terms|): the store maintains these statistics as objects come
    # and go, so planning never iterates the objects.
    db.ensure_frozen()
    require_on_edge(db.network, query.position)
    store = db.store
    num_objects = len(store)
    tf = tuple(sorted(
        ((term, store.document_frequency(term)) for term in query.terms),
        key=lambda pair: (pair[1], pair[0]),
    ))
    estimated = float(num_objects)
    for _term, df in tf:
        estimated *= (df / num_objects) if num_objects else 0.0
    return CostHints(
        num_objects=num_objects,
        num_edges=db.network.num_edges,
        vocabulary_size=store.vocabulary_size,
        term_frequencies=tf,
        estimated_matches=estimated,
        selectivity=(estimated / num_objects) if num_objects else 0.0,
        distance_backend=db.distance_backend,
        data_version=db.data_version,
        recent_updates=len(db.update_journal),
    )


def plan_sk(db: "Database", index: ObjectIndex, query: SKQuery) -> QueryPlan:
    """Plan a boolean SK range search (always INE, Algorithm 3); a
    query with a ``limit`` takes that many items off the expansion."""
    return QueryPlan(
        kind="sk",
        query=query,
        index=index,
        algorithm="ine",
        hints=_cost_hints(db, query),
        rationale="SK range search expands the network incrementally (INE)",
    )


def plan_diversified(
    db: "Database",
    index: ObjectIndex,
    query: DiversifiedSKQuery,
    method: Optional[str] = None,
    enable_pruning: bool = True,
) -> QueryPlan:
    """Plan a diversified SK search.

    ``method`` pins ``"seq"`` or ``"com"``.  ``None`` plans ``"auto"``:
    the executor buffers ``SWITCH_FACTOR · k`` arrivals and runs SEQ if
    the pool closes inside them, COM otherwise — chosen on the pool the
    query meets, not on ``hints.estimated_matches``.  At ``λ ≤ ½`` it
    plans ``"seq"``: there no θ exceeds ``1 − λ`` and COM's
    unvisited-pair bound never drops below that, so COM cannot stop
    early and would pay one search per streamed arrival for the pool
    SEQ scores with one.
    """
    hints = _cost_hints(db, query)
    if method is not None:
        method = method.lower()
        if method not in ("seq", "com"):
            raise QueryError("method must be 'seq' or 'com'")
        algorithm = method
        rationale = f"caller forced {method.upper()}"
    elif query.lambda_ <= 0.5:
        algorithm = "seq"
        rationale = (
            f"SEQ: at λ={query.lambda_:g} ≤ ½ COM's unvisited-pair bound "
            "never drops below θ_T, so it could not stop early"
        )
    else:
        algorithm = "auto"
        rationale = (
            f"SEQ if the pool closes inside {SWITCH_FACTOR * query.k} "
            f"({SWITCH_FACTOR}·k) arrivals, else COM seeded from them"
        )
    return QueryPlan(
        kind="diversified",
        query=query,
        index=index,
        algorithm=algorithm,
        enable_pruning=enable_pruning,
        hints=hints,
        rationale=rationale,
    )
