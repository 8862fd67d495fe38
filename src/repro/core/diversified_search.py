"""Diversified SK search: one loop, two exits (paper §4.1, Algorithm 6).

:func:`diversified_search` buffers the first arrivals of the INE stream
(Algorithm 3, distance order) with no core-pair bookkeeping.  If the
stream closes inside the buffer, the buffer is the whole pool and
**SEQ** scores it: one pair matrix, then the greedy Algorithm 1
(:func:`diversify_pool`).  If the buffer fills, it seeds the core pairs
and θ_T (Algorithm 5) and **COM** consumes the rest incrementally, the
§4.3 diversity bounds (a) pruning visited objects that can never become
core and (b) terminating the network expansion as soon as no unvisited
object can contribute — closing the INE generator mid-flight.

COM's stop test departs from Algorithm 6 as printed.  The paper keeps
expanding while any active object's visited bound
``theta_ub_visited(δ(o, q), γ)`` reaches θ_T.  Here a *core* object is
tested against the θ of its own core pair instead; non-core objects and
the unvisited-pair bound keep θ_T.  By Lemma 1 a core object ``o_x``
takes a new partner only at a θ no lower than its pair's (which is
≥ θ_T), so the rule stops no later than the paper's and returns the
same answer.  By induction over later arrivals, while every test holds
no arrival enters φ: a non-core object's bound is below θ_T, a core
object dominates any arrival below its pair's θ, and any two unvisited
objects' bound is below θ_T.  So no case ii or iii of Algorithm 5 can
start, and CP, θ_T and the answer are final.  ``enable_pruning=False``
(every arrival processed) is the oracle the tests hold it to.

The buffer's size is all a caller chooses: every arrival for a SEQ pin
(:func:`seq_search`), ``k`` for a COM pin (:func:`com_search`),
``SWITCH_FACTOR · k`` un-pinned; ``result.method`` names the exit.

Every query records a per-stage time breakdown into
``QueryStats.stage_seconds`` (``expansion``, ``object_loading``,
``maintenance``/``greedy``, ``pairwise_dijkstra``, ``finalise``).  A
query's :class:`~repro.network.distance.PairwiseDistanceComputer` is
its own, so the computer's counters are the query's pairwise counters.

The ``pairwise_dijkstra`` stage is the wall time of the query's
pairwise Dijkstras, on either backend.  A *set* of
pair distances — SEQ's pool, COM's buffer, the pairs of an answer — is
always one :meth:`PairDistances.matrix` call, which on the default
backend is one C call (``single_source_rows``) whatever the set's size:
one per SEQ exit; on the COM exit one at the bootstrap and at most one
more when the answer holds objects that arrived later.  Between the two
COM asks pair by pair, one streamed arrival at a time, and most of
those are read off an opponent's kept row.  The standing-query refresh
(:mod:`repro.core.incremental`) scores its pool through
:func:`diversify_pool` like the SEQ exit: one call.
"""

from __future__ import annotations

import time
from itertools import islice
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import QueryError
from ..index.base import LoadCounters, ObjectIndex
from ..network.distance import (
    PAIRWISE_CUTOFF_FACTOR,
    AdjacencyProvider,
    PairwiseDistanceComputer,
)
from ..network.graph import RoadNetwork
from ..obs.metrics import StageClock
from ..obs.tracing import NULL_TRACER
from .core_pairs import CorePairMaintainer
from .diversify import greedy_diversify
from .ine import INEExpansion
from .objective import DiversificationObjective
from .queries import DiversifiedResult, DiversifiedSKQuery, QueryStats, ResultItem

__all__ = ["diversified_search", "seq_search", "com_search",
           "diversify_pool", "PairDistances", "SWITCH_FACTOR"]

INF = float("inf")


#: An ``inf`` pair of one pool: the items' query distances broke
#: :class:`PairDistances`' precondition.
_UNREACHED = (
    "objects {} and {} of one pool are beyond the pairwise cutoff: an "
    "item's distance understates its network distance from the query"
)


class PairDistances:
    """Pair distances between result items, from one query's computer.

    A *set* of pair distances goes through :meth:`matrix`: one batched
    call whatever the set's size (``computer.pairwise_matrix`` — one C
    call on either backend, ``dijkstra`` then charging the CCAM pages
    of each search's settled nodes, or an oracle's ``position_matrix``).
    The last matrix is kept, so the objective of an answer that lies
    inside it costs no further distance.  :meth:`distance` answers one
    pair: COM's streamed arrivals.

    Both hand the computer the items' query distances as ``reach``, so
    the uncharged C search from a source stops at ``δ(q, s) + δmax``
    (plus the cutoff's 0.1 % slack) instead of ``2 · δmax``.  That is
    exact only when every ``item.distance`` is the item's network
    distance from the query or an overestimate, as INE and the
    standing-query pool emit; then no pair of the pool is ``inf``, so
    an ``inf`` pair raises :class:`~repro.errors.QueryError` instead of
    scoring a wrong θ.
    """

    def __init__(self, computer: PairwiseDistanceComputer) -> None:
        self._computer = computer
        self._matrix: Optional["np.ndarray"] = None
        self._row_of: Dict[int, int] = {}

    def distance(self, a: ResultItem, b: ResultItem) -> float:
        d = self._computer.distance(
            a.object.position, b.object.position, reach=a.distance
        )
        if d == float("inf"):
            raise QueryError(
                _UNREACHED.format(a.object.object_id, b.object.object_id)
            )
        return d

    def matrix(self, items: Sequence[ResultItem]) -> "np.ndarray":
        matrix = self._computer.pairwise_matrix(
            [it.object.position for it in items],
            reach=max((it.distance for it in items), default=0.0),
        )
        if not np.isfinite(matrix).all():
            i, j = np.argwhere(~np.isfinite(matrix))[0]
            raise QueryError(_UNREACHED.format(
                items[i].object.object_id, items[j].object.object_id
            ))
        self._matrix = matrix
        self._row_of = {it.object.object_id: i for i, it in enumerate(items)}
        return matrix

    def objective_value(
        self, objective: DiversificationObjective, items: List[ResultItem]
    ) -> float:
        """``f(items)``, from the kept matrix when it covers ``items``,
        else from one more over exactly them."""
        if any(it.object.object_id not in self._row_of for it in items):
            self.matrix(items)
        rows = [self._row_of[it.object.object_id] for it in items]
        matrix = self._matrix

        def pd(i: int, j: int) -> float:
            return float(matrix[rows[i], rows[j]])

        return objective.objective([it.distance for it in items], pd)


def _record_pairwise(
    stats: QueryStats, computer: PairwiseDistanceComputer, clock: StageClock
) -> None:
    """Copy the query's own computer's counters into its stats."""
    stats.pairwise_dijkstras = computer.dijkstra_runs
    stats.distance_cache_hits = computer.cache_hits
    stats.distance_cache_misses = computer.cache_misses
    stats.distance_backend = computer.backend_name
    clock.add("pairwise_dijkstra", computer.dijkstra_seconds)


def diversify_pool(
    candidates: List[ResultItem],
    k: int,
    objective: DiversificationObjective,
    computer: PairwiseDistanceComputer,
    clock: StageClock,
    tracer=NULL_TRACER,
) -> Tuple[List[ResultItem], float]:
    """SEQ's scoring half (§4.1): pool → one pair matrix → array greedy
    → ``f(S)``.  Returns the chosen items and their objective value.

    Shared with the standing-query refresh, which maintains the pool
    instead of expanding for it.  The greedy's selections, ordering and
    per-query Dijkstra counts are those of the scalar
    ``greedy_diversify`` reference.
    """
    pairs = PairDistances(computer)
    greedy_t0 = time.perf_counter()
    with clock.stage("greedy"):
        chosen = greedy_diversify(
            candidates, k, objective, pairs.distance,
            pair_matrix_builder=pairs.matrix,
        )
    if tracer.enabled:
        tracer.add_span(
            "greedy.select", time.perf_counter() - greedy_t0,
            start=greedy_t0, candidates=len(candidates), k=k,
        )
    with clock.stage("finalise"):
        value = pairs.objective_value(objective, chosen)
    return chosen, value


#: Arrivals, times ``k``, an un-pinned query buffers before it commits to
#: COM.  On seed-7 ``perf/`` streams 3 raised ``mixed_updates``' page
#: reads, 4 those of ``div_default`` and ``div_wide``.
SWITCH_FACTOR = 2


def diversified_search(
    provider: AdjacencyProvider, network: RoadNetwork, index: ObjectIndex,
    query: DiversifiedSKQuery, algorithm: str,
    pairwise: Optional[PairwiseDistanceComputer] = None,
    enable_pruning: bool = True, tracer=NULL_TRACER,
    counters: Optional[LoadCounters] = None,
) -> DiversifiedResult:
    """Run one diversified query; ``result.method`` is the exit taken.

    ``algorithm`` is the plan's: ``"seq"`` buffers every arrival,
    ``"com"`` the first ``k`` and always exits as COM, un-pinned
    ``SWITCH_FACTOR · k``.  ``enable_pruning=False`` disables the
    diversity bounds on the COM exit (ablation A2): the stream is still
    processed incrementally but runs to exhaustion, isolating the
    benefit of the §4.3 pruning.
    """
    start = time.perf_counter()
    clock = StageClock()
    expansion = INEExpansion(
        provider, network, index, query.position, query.terms,
        query.delta_max, counters, tracer,
    )
    objective = DiversificationObjective(query.lambda_, query.delta_max)
    computer = pairwise or PairwiseDistanceComputer(
        provider, network, cutoff=PAIRWISE_CUTOFF_FACTOR * query.delta_max
    )

    bootstrap = {"seq": None, "com": query.k}.get(
        algorithm, SWITCH_FACTOR * query.k
    )
    stream = clock.timed_iter(expansion.run(), "expansion")
    buffer = list(islice(stream, bootstrap))
    closed = bootstrap is None or len(buffer) < bootstrap
    if closed and algorithm != "com":  # a COM pin seeds CP from any pool
        chosen, value = diversify_pool(
            buffer, query.k, objective, computer, clock, tracer
        )
        result = DiversifiedResult(
            chosen, value, "SEQ", QueryStats(candidates=len(buffer))
        )
    else:
        result = _continue_as_com(
            stream, buffer, query, objective, computer, clock,
            enable_pruning, tracer,
        )
    stats = result.stats
    stats.nodes_accessed = expansion.stats.nodes_accessed
    stats.edges_accessed = expansion.stats.edges_accessed
    clock.add("object_loading", expansion.stats.load_seconds)
    _record_pairwise(stats, computer, clock)
    stats.stage_seconds = clock.stages
    stats.wall_seconds = time.perf_counter() - start
    return result


def _continue_as_com(
    stream, buffer: List[ResultItem], query: DiversifiedSKQuery,
    objective: DiversificationObjective, computer: PairwiseDistanceComputer,
    clock: StageClock, enable_pruning: bool, tracer,
) -> DiversifiedResult:
    """Algorithm 6 from a full buffer: the buffer seeds the core pairs
    (θ-bound rows batched through numpy), then the stream is taken one
    arrival at a time.

    The stop test reads each active object's visited bound against θ_T,
    except that a core object's is read against its own pair's θ
    (:meth:`CorePairMaintainer.partner_theta`): Lemma 1 rules out any
    new partner below it, so a later arrival cannot change CP unless
    some bound reaches its bar.  This departs from Algorithm 6 as
    printed, which holds core objects to θ_T too; the module docstring
    gives the proof.  Only non-core objects are pruned.

    When ``tracer`` is enabled, every arrival that reaches the pruning
    decision records a ``com.round`` span (γ, θ_T, the unvisited-pair
    upper bound, and the action taken), and early termination raises a
    ``com.early_termination`` event on the enclosing query span.
    """
    pairs = PairDistances(computer)
    maintainer = CorePairMaintainer(
        query.k, objective, pairs.distance, tracer=tracer,
        pair_matrix=pairs.matrix,
    )
    partner_theta = maintainer.partner_theta
    tracing = tracer.enabled
    with clock.stage("maintenance"):
        maintainer.bootstrap(buffer)
    candidates = len(buffer)
    terminated_early = False
    pruned_total = 0

    def finish_round(t_item: float, action: str, **attrs) -> None:
        clock.add("maintenance", time.perf_counter() - t_item)
        if tracing:
            tracer.add_span(
                "com.round", time.perf_counter() - t_item, start=t_item,
                candidate=candidates, action=action,
                theta_t=maintainer.theta_t, **attrs,
            )

    for item in stream:
        candidates += 1
        t_item = time.perf_counter()
        maintainer.add(item)
        gamma = item.distance  # objects arrive in distance order
        if not enable_pruning:
            finish_round(t_item, "no_pruning", gamma=gamma)
            continue
        theta_t = maintainer.theta_t
        if theta_t == float("-inf"):
            finish_round(t_item, "cp_not_full", gamma=gamma)
            continue
        # Bound for any pair of two unvisited objects (Alg. 6 lines 4-7).
        ub_unvisited = objective.theta_ub_unvisited(gamma)
        if ub_unvisited >= theta_t:
            finish_round(
                t_item, "unvisited_pair_possible",
                gamma=gamma, ub_unvisited=ub_unvisited,
            )
            continue
        can_terminate = True
        pruned_here = 0
        for o_i in maintainer.active_objects():
            oid = o_i.object.object_id
            # A core object takes a new partner only at a θ no lower
            # than its own pair's (Lemma 1); any other object, at a θ
            # above θ_T.
            bar = partner_theta(oid)
            core = bar != INF
            if objective.theta_ub_visited(o_i.distance, gamma) >= (
                bar if core else theta_t
            ):
                # o_i may still pair with an unvisited object: keep
                # expanding (Alg. 6 lines 11-12).
                can_terminate = False
                break
            if not core and maintainer.best_theta(oid) < theta_t:
                # o_i can pair with nothing: drop it (Alg. 6 lines 13-14).
                maintainer.prune(oid)
                pruned_here += 1
        pruned_total += pruned_here
        finish_round(
            t_item,
            "terminate" if can_terminate else "visited_pair_possible",
            gamma=gamma, ub_unvisited=ub_unvisited, pruned=pruned_here,
        )
        if can_terminate:
            stream.close()  # terminate the network expansion (line 16)
            terminated_early = True
            if tracing:
                tracer.event(
                    "com.early_termination", gamma=gamma, theta_t=theta_t,
                    gamma_fraction=(
                        gamma / query.delta_max if query.delta_max > 0 else 0.0
                    ),
                    candidates=candidates,
                )
            break

    chosen = maintainer.core_objects()[: query.k]
    if tracing:
        tracer.add_span(
            "com.maintenance", clock.stages.get("maintenance", 0.0),
            candidates=candidates,
            theta_evaluations=maintainer.theta_evaluations,
            pruned_objects=pruned_total,
            terminated_early=terminated_early,
        )
    stats = QueryStats(
        candidates=candidates,
        theta_evaluations=maintainer.theta_evaluations,
        expansion_terminated_early=terminated_early,
    )
    with clock.stage("finalise"):
        # The bootstrap's matrix still covers an answer made of the
        # buffered arrivals; a later arrival in it costs one more.
        value = pairs.objective_value(objective, chosen)
    return DiversifiedResult(chosen, value, "COM", stats)


def seq_search(
    provider: AdjacencyProvider, network: RoadNetwork, index: ObjectIndex,
    query: DiversifiedSKQuery,
    pairwise: Optional[PairwiseDistanceComputer] = None, tracer=NULL_TRACER,
) -> DiversifiedResult:
    """SEQ pinned (paper §4.1): Algorithm 3 run to completion, then
    :func:`diversify_pool`."""
    return diversified_search(
        provider, network, index, query, "seq", pairwise, tracer=tracer
    )


def com_search(
    provider: AdjacencyProvider, network: RoadNetwork, index: ObjectIndex,
    query: DiversifiedSKQuery,
    pairwise: Optional[PairwiseDistanceComputer] = None,
    enable_pruning: bool = True, tracer=NULL_TRACER,
) -> DiversifiedResult:
    """COM pinned (Algorithm 6): the first ``k`` arrivals seed the core
    pairs."""
    return diversified_search(
        provider, network, index, query, "com", pairwise, enable_pruning,
        tracer,
    )
