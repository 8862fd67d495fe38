"""Incremental maintenance of core pairs and θ_T (paper Algorithm 5, §4.2).

The *core pairs* CP(R) are the ⌊k/2⌋ pairs the greedy diversification
would pick on the objects seen so far; the *core objects* CO are their
members and θ_T is the smallest pair distance in CP.  Theorem 1: θ_T
grows monotonically as objects arrive, which is what makes the COM
pruning sound.

Algorithm 5 updates CP against one arrival in O(n·k) instead of
re-running the greedy from scratch: a new object ``o`` only matters if
some non-dominating object ``o'`` has ``θ(o, o') > θ_T`` (Lemma 1); if
``o'`` was itself a core object its old partner is kicked out and
re-inserted as a fresh arrival, which can cascade at most k/2 times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Set, Tuple

import numpy as np

from ..obs.tracing import NULL_TRACER
from .diversify import PairMatrixBuilder, greedy_rounds
from .objective import _ROUNDING, DiversificationObjective
from .queries import ResultItem

__all__ = ["CorePair", "CorePairMaintainer"]

PairDistance = Callable[[ResultItem, ResultItem], float]

_OUT_OF_ORDER = (
    "object {} arrives at distance {}: arrivals come in non-decreasing "
    "distance, within delta_max"
)


@dataclass
class CorePair:
    """One core pair with its diversification distance θ."""

    theta: float
    u: ResultItem
    v: ResultItem

    def members(self) -> Tuple[int, int]:
        return (self.u.object.object_id, self.v.object.object_id)


class CorePairMaintainer:
    """Streams objects in and keeps CP, CO and θ_T up to date."""

    def __init__(
        self,
        k: int,
        objective: DiversificationObjective,
        pair_distance: PairDistance,
        pair_matrix: PairMatrixBuilder,
        tracer=NULL_TRACER,
    ) -> None:
        """``pair_distance`` answers one pair — each streamed arrival
        against the opponents its θ bound could not rule out;
        ``pair_matrix`` answers the bootstrap's whole set at once.

        ``tracer`` records a ``com.core_pair`` event on every CP
        insertion, so a trace shows when (and at what θ) the result set
        last changed.

        Objects arrive in non-decreasing distance, within δmax, as INE
        emits them (:meth:`add` raises otherwise): each arrival's θ
        bound row is then monotone, so it is bisected instead of tested
        cell by cell (:meth:`_theta_row`) — the same pairs asked, in the
        same order, and the same counters."""
        if k < 2:
            raise ValueError("k must be at least 2")
        self._k = k
        self._num_pairs = k // 2
        self._objective = objective
        self._pair_distance = pair_distance
        self._pair_matrix = pair_matrix
        self._tracer = tracer
        self._pairs: List[CorePair] = []  # descending by theta
        #: core object id -> θ of the core pair it belongs to
        self._pair_theta: Dict[int, float] = {}
        #: every active (non-pruned) object seen so far, by id
        self._arrived: Dict[int, ResultItem] = {}
        #: every object seen so far, pruned ones included: what an odd
        #: ``k``'s last slot is filled from
        self._seen: Dict[int, ResultItem] = {}
        #: object_id -> best θ against any other active object, of the
        #: cells that can decide the prune test (:meth:`best_theta`)
        self._best_theta: Dict[int, float] = {}
        self.theta_evaluations = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def theta_t(self) -> float:
        """Current pruning threshold θ_T (−inf before CP is full)."""
        if len(self._pairs) < self._num_pairs:
            return float("-inf")
        return self._pairs[-1].theta

    def core_objects(self) -> List[ResultItem]:
        """The current diversified result, ordered by distance.

        Members of the core pairs come first; when they do not reach
        ``k`` (odd ``k``, or fewer than ``k`` candidates overall) the
        closest other objects seen, pruned ones included, fill the
        result by ``(distance, id)`` — SEQ's rule for the same slot.
        """
        out: List[ResultItem] = []
        seen: Set[int] = set()
        for pair in self._pairs:
            for item in (pair.u, pair.v):
                if item.object.object_id not in seen:
                    seen.add(item.object.object_id)
                    out.append(item)
        if len(out) < self._k:
            spare = [
                item for oid, item in self._seen.items() if oid not in seen
            ]
            spare.sort(key=lambda it: (it.distance, it.object.object_id))
            out.extend(spare[: self._k - len(out)])
        out.sort(key=lambda it: (it.distance, it.object.object_id))
        return out

    def active_objects(self) -> List[ResultItem]:
        return list(self._arrived.values())

    def is_core(self, object_id: int) -> bool:
        return object_id in self._pair_theta

    def partner_theta(self, object_id: int) -> float:
        """θ of the core pair holding ``object_id`` (inf for a non-core
        object).  By Lemma 1 a core object takes a new partner only at
        a θ at least this high."""
        return self._pair_theta.get(object_id, float("inf"))

    def best_theta(self, object_id: int) -> float:
        """Largest θ between this object and another active object, of
        the pairs the prune test ``best_theta < θ_T`` can turn on.

        After :meth:`bootstrap` that is every pair of the pool.  An
        arrival adds its pairs asked exactly, and the pairs left at a
        bound equal to θ_T at the time, at that value; a pair left at a
        bound below θ_T is not counted, since θ_T never falls.  So the
        prune test reads as it would over every pair, the value may
        not."""
        return self._best_theta.get(object_id, float("-inf"))

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _theta(self, a: ResultItem, b: ResultItem) -> float:
        self.theta_evaluations += 1
        return self._objective.theta(
            a.distance, b.distance, self._pair_distance(a, b)
        )

    def _theta_row(
        self,
        item: ResultItem,
        others: List[ResultItem],
        theta_t: float,
    ) -> Tuple[Dict[int, float], List[int]]:
        """Exact θ of ``item`` against the opponents in ``others`` whose
        θ bound clears ``theta_t``, and the ids of those whose bound
        equals it.

        The bound is θ with the pair distance at its triangle-inequality
        ceiling through the query, ``δ(a, b) ≤ δ(a, q) + δ(b, q)``: θ is
        monotone in the pair distance, so a pair whose bound is at most
        θ_T can never enter the core pairs and its exact value decides
        nothing (φ needs ``θ > θ_T``).  For objects within δmax the
        bound is ``λ + (1 − 2λ)(d + d′)/(2δmax)``, linear in the
        opponent's distance ``d′``, and ``others`` are in arrival order,
        which is distance order: the cells that clear θ_T are one prefix
        (λ ≥ ½) or one suffix (λ < ½) of the row.  A bisection with the
        scalar ``theta`` finds its end — probing the row's best cell
        first, since most rows clear nothing (44 % on seed-7
        ``div_wide``) — and the cells around it are
        re-tested one by one until a bound lies more than
        :data:`_ROUNDING` from θ_T.  The computed bound strays from the
        real line by a few ulps at most, so each cell beyond that one
        falls on its side whatever its own rounding, and each cell
        inside is decided by its own ``ub > θ_T``: the row asks exactly
        the pairs, in the order, that a test of every cell would.
        """
        d = item.distance
        theta = self._objective.theta
        n = len(others)
        ubs: Dict[int, float] = {}

        def bound(i: int) -> float:
            ub = ubs.get(i)
            if ub is None:
                e = others[i].distance
                ub = ubs[i] = theta(d, e, d + e)
            return ub

        falling = self._objective.lambda_ >= 0.5
        near, far = theta_t - _ROUNDING, theta_t + _ROUNDING
        lo, hi = 0, n
        if n and bound(0 if falling else n - 1) <= theta_t:
            lo = hi = 0 if falling else n  # not even the best cell clears
        while lo < hi:
            mid = (lo + hi) // 2
            if (bound(mid) > theta_t) == falling:
                lo = mid + 1
            else:
                hi = mid
        left, right = lo - 1, lo
        while left >= 0 and near < bound(left) <= far:
            left -= 1
        while right < n and near < bound(right) <= far:
            right += 1
        window = [(i, bound(i)) for i in range(left + 1, right)]
        clearing = [i for i, ub in window if ub > theta_t]
        asked = (
            [*range(left + 1), *clearing] if falling
            else [*clearing, *range(right, n)]
        )
        thetas = {
            others[i].object.object_id: self._theta(item, others[i])
            for i in asked
        }
        level = [
            others[i].object.object_id for i, ub in window if ub == theta_t
        ]
        return thetas, level

    def bootstrap(self, items: List[ResultItem]) -> None:
        """Initialise CP on the first arrivals with the greedy algorithm.

        One pair matrix over ``items`` — in arrival order, as a pair by
        pair walk would resolve them, so the same sources run — then one
        θ matrix over the ``(distance, id)`` sorted pool: ``best_theta``
        is its row maxima, the core pairs are the array greedy's rounds
        (already in non-increasing θ).
        """
        if self._pairs or self._arrived:
            raise ValueError("bootstrap must run on an empty maintainer")
        for i, item in enumerate(items):
            if item.distance > self._objective.delta_max or (
                i and item.distance < items[i - 1].distance
            ):
                raise ValueError(
                    _OUT_OF_ORDER.format(item.object.object_id, item.distance)
                )
            self._arrived[item.object.object_id] = item
        self._seen.update(self._arrived)
        n = len(items)
        if n < 2:
            return
        matrix = self._pair_matrix(items)
        order = sorted(
            range(n),
            key=lambda i: (items[i].distance, items[i].object.object_id),
        )
        pool = [items[i] for i in order]
        if order != list(range(n)):  # arrivals tied on distance
            matrix = matrix[np.ix_(order, order)]
        dists = np.fromiter((it.distance for it in pool), np.float64, n)
        theta = self._objective.theta_matrix(dists, matrix)
        self.theta_evaluations += n * (n - 1) // 2
        others = np.where(np.eye(n, dtype=bool), -np.inf, theta)
        for item, best in zip(pool, others.max(axis=1).tolist()):
            self._best_theta[item.object.object_id] = best
        self._pairs = [
            CorePair(float(theta[i, j]), pool[i], pool[j])
            for i, j in greedy_rounds(theta, self._num_pairs)
        ]
        for pair in self._pairs:
            for member in pair.members():
                self._pair_theta[member] = pair.theta

    def add(self, item: ResultItem) -> None:
        """Algorithm 5: process one arriving object.

        Raises ``ValueError`` for an arrival closer to the query than
        the last one, or beyond δmax: its θ bound row would not be
        monotone in arrival order (:meth:`_theta_row`)."""
        oid = item.object.object_id
        if oid in self._arrived:
            return
        others = list(self._arrived.values())
        if item.distance > self._objective.delta_max or (
            others and item.distance < others[-1].distance
        ):
            raise ValueError(_OUT_OF_ORDER.format(oid, item.distance))
        self._arrived[oid] = item
        self._seen[oid] = item

        # θ against every active object whose bound clears θ_T, and
        # best_theta refreshed from it so the COM pruning (Algorithm 6
        # lines 9-14) is O(1) per object.  A cell left at its bound is
        # at most θ_T now, and θ_T never falls (Theorem 1), so it can
        # decide ``best_theta < θ_T`` only when it equals θ_T: those
        # cells are recorded at that value, the rest never are.
        theta_t_now = self.theta_t
        thetas, level = self._theta_row(item, others, theta_t_now)
        best = self._best_theta
        for other_id, t in thetas.items():
            if t > best.get(other_id, float("-inf")):
                best[other_id] = t
        for other_id in level:
            if theta_t_now > best.get(other_id, float("-inf")):
                best[other_id] = theta_t_now
        own = max(thetas.values(), default=float("-inf"))
        best[oid] = max(own, theta_t_now) if level else own

        current = item
        current_thetas = thetas
        # The cascade is bounded by k/2 rounds (paper's correctness
        # argument); the loop bound is doubled purely as a safety net.
        for _ in range(2 * self._num_pairs + 2):
            if not self._process_arrival(current, current_thetas):
                break
            # _process_arrival re-queues a kicked-out object via
            # self._requeued; fetch and continue the cascade.
            current = self._requeued
            opponents = [
                other
                for other in self._arrived.values()
                if other.object.object_id != current.object.object_id
            ]
            current_thetas, _ = self._theta_row(
                current, opponents, self.theta_t
            )

    _requeued: ResultItem

    def _process_arrival(
        self, item: ResultItem, thetas: Dict[int, float]
    ) -> bool:
        """One round of the Algorithm 5 while-loop.

        Returns ``True`` when an object was kicked out of CP and must be
        reprocessed (case iii); ``False`` terminates the loop.
        """
        oid = item.object.object_id
        theta_t = self.theta_t

        # φ(o): objects with θ(o, o_x) > θ_T not dominating o.  A core
        # object o_x dominates o when θ(o, o_x) < θ(o_x, partner).
        phi: List[Tuple[float, int]] = []
        pair_theta = self._pair_theta
        for other_id, t in thetas.items():
            if other_id == oid or other_id not in self._arrived:
                continue
            if t <= theta_t:
                continue
            if t < pair_theta.get(other_id, t):
                # dominated by this core object (Lemma 1); a non-core
                # object's default, t itself, dominates nothing
                continue
            phi.append((t, other_id))
        if not phi:
            return False  # case i: o cannot improve CP

        t_best, partner_id = max(phi)
        partner = self._arrived[partner_id]
        new_pair = CorePair(t_best, item, partner)

        if not self.is_core(partner_id):
            # Case ii: replace the weakest core pair with (o, o').
            if len(self._pairs) >= self._num_pairs:
                self._remove_pair(self._pairs[-1])
            self._insert_pair(new_pair)
            return False
        # Case iii: o' is core; (o, o') replaces (o', o_y) and o_y is
        # treated as a fresh arrival.
        old_pair = next(
            p for p in self._pairs if partner_id in p.members()
        )
        self._remove_pair(old_pair)
        kicked = old_pair.v if old_pair.u.object.object_id == partner_id else old_pair.u
        self._insert_pair(new_pair)
        self._requeued = kicked
        return True

    def _remove_pair(self, pair: CorePair) -> None:
        self._pairs.remove(pair)
        for member in pair.members():
            del self._pair_theta[member]

    def _insert_pair(self, pair: CorePair) -> None:
        self._pairs.append(pair)
        self._pairs.sort(key=lambda p: -p.theta)
        u, v = pair.members()
        self._pair_theta[u] = self._pair_theta[v] = pair.theta
        if self._tracer.enabled:
            self._tracer.event(
                "com.core_pair", theta=pair.theta, u=u, v=v,
                theta_t=self.theta_t,
            )

    def prune(self, object_id: int) -> None:
        """Remove a visited object from future computation (Alg. 6 L14)."""
        if self.is_core(object_id):
            raise ValueError(f"cannot prune core object {object_id}")
        self._arrived.pop(object_id, None)
        self._best_theta.pop(object_id, None)
