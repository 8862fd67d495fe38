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
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from ..obs.tracing import NULL_TRACER
from .diversify import PairMatrixBuilder, greedy_rounds, matrix_from_pairs
from .objective import DiversificationObjective
from .queries import ResultItem

__all__ = ["CorePair", "CorePairMaintainer"]

PairDistance = Callable[[ResultItem, ResultItem], float]

#: Below this many opponents a batched θ row costs more in array setup
#: than the scalar loop it replaces.
_ARRAY_ROW_MIN = 8


@dataclass
class CorePair:
    """One core pair with its diversification distance θ."""

    theta: float
    u: ResultItem
    v: ResultItem

    def members(self) -> Tuple[int, int]:
        return (self.u.object.object_id, self.v.object.object_id)

    def contains(self, object_id: int) -> bool:
        return object_id in self.members()


class CorePairMaintainer:
    """Streams objects in and keeps CP, CO and θ_T up to date."""

    def __init__(
        self,
        k: int,
        objective: DiversificationObjective,
        pair_distance: PairDistance,
        tracer=NULL_TRACER,
        pair_matrix: Optional[PairMatrixBuilder] = None,
    ) -> None:
        """``pair_distance`` answers one pair — each streamed arrival
        against the opponents its θ bound could not rule out;
        ``pair_matrix`` answers the bootstrap's whole set at once
        (default: ``pair_distance`` asked pair by pair).

        ``tracer`` records a ``com.core_pair`` event on every CP
        insertion, so a trace shows when (and at what θ) the result set
        last changed.

        Each arrival's θ-upper-bound row is batched through numpy
        (:meth:`DiversificationObjective.theta_batch`) once it is long
        enough to pay for the array setup — same bounds bit for bit as
        the object-by-object loop, same counters."""
        if k < 2:
            raise ValueError("k must be at least 2")
        self._k = k
        self._num_pairs = k // 2
        self._objective = objective
        self._pair_distance = pair_distance
        self._pair_matrix = pair_matrix or (
            lambda items: matrix_from_pairs(items, pair_distance)
        )
        self._tracer = tracer
        self._pairs: List[CorePair] = []  # descending by theta
        #: every active (non-pruned) object seen so far, by id
        self._arrived: Dict[int, ResultItem] = {}
        #: every object seen so far, pruned ones included: what an odd
        #: ``k``'s last slot is filled from
        self._seen: Dict[int, ResultItem] = {}
        #: object_id -> best θ against any other active object
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

    @property
    def pairs(self) -> List[CorePair]:
        return list(self._pairs)

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
        return any(p.contains(object_id) for p in self._pairs)

    def best_theta(self, object_id: int) -> float:
        """Largest θ between this object and any other active object."""
        return self._best_theta.get(object_id, float("-inf"))

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _theta(self, a: ResultItem, b: ResultItem) -> float:
        self.theta_evaluations += 1
        return self._objective.theta(
            a.distance, b.distance, self._pair_distance(a, b)
        )

    def _theta_upper_bound(self, a: ResultItem, b: ResultItem) -> float:
        """Cheap θ upper bound needing no network distance.

        By the triangle inequality through the query point,
        ``δ(a, b) <= δ(a, q) + δ(b, q)``; θ is monotone in the pair
        distance, so plugging the bound in yields an upper bound.
        """
        return self._objective.theta(
            a.distance, b.distance, a.distance + b.distance
        )

    def _theta_row(
        self,
        item: ResultItem,
        others: List[ResultItem],
        theta_t_now: float,
    ) -> Dict[int, float]:
        """θ of ``item`` against every object in ``others``.

        The θ upper bound (triangle inequality through the query) is
        evaluated for the whole row; only opponents whose bound clears
        ``theta_t_now`` get the exact (network-distance) θ.  A long
        enough row is one ``theta_batch`` call — the per-element
        arithmetic is identical to the scalar loop, so the ``ub <= θ_T``
        decisions, ``theta_evaluations`` and the returned values all
        match.
        """
        if len(others) >= _ARRAY_ROW_MIN:
            dists_v = np.fromiter(
                (o.distance for o in others), np.float64, len(others)
            )
            ubs = self._objective.theta_batch(
                item.distance, dists_v, item.distance + dists_v
            )
            return {
                other.object.object_id: (
                    ub if ub <= theta_t_now else self._theta(item, other)
                )
                for other, ub in zip(others, ubs.tolist())
            }
        out: Dict[int, float] = {}
        for other in others:
            ub = self._theta_upper_bound(item, other)
            out[other.object.object_id] = (
                ub if ub <= theta_t_now else self._theta(item, other)
            )
        return out

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
        for item in items:
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

    def add(self, item: ResultItem) -> None:
        """Algorithm 5: process one arriving object."""
        oid = item.object.object_id
        if oid in self._arrived:
            return
        others = list(self._arrived.values())
        self._arrived[oid] = item
        self._seen[oid] = item

        # θ against every active object; also refresh best_theta so the
        # COM pruning (Algorithm 6 lines 9-14) is O(1) per object.  The
        # expensive network pair distance is only computed when the
        # cheap triangle-inequality bound clears θ_T: a pair whose θ
        # upper bound is below θ_T can never enter the core pairs, so
        # its exact value is irrelevant to every later decision (φ
        # membership requires θ > θ_T, and the visited-object pruning
        # test only asks whether θ stays below θ_T).
        theta_t_now = self.theta_t
        thetas = self._theta_row(item, others, theta_t_now)
        for other_id, t in thetas.items():
            if t > self._best_theta.get(other_id, float("-inf")):
                self._best_theta[other_id] = t
        if thetas:
            self._best_theta[oid] = max(thetas.values())
        else:
            self._best_theta[oid] = float("-inf")

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
            theta_t_now = self.theta_t
            opponents = [
                other
                for other in self._arrived.values()
                if other.object.object_id != current.object.object_id
            ]
            current_thetas = self._theta_row(current, opponents, theta_t_now)

    _requeued: ResultItem

    def _partner_theta(self, object_id: int) -> float:
        """θ of the core pair containing ``object_id`` (inf when absent)."""
        for pair in self._pairs:
            if pair.contains(object_id):
                return pair.theta
        return float("inf")

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
        for other_id, t in thetas.items():
            if other_id == oid or other_id not in self._arrived:
                continue
            if t <= theta_t:
                continue
            if self.is_core(other_id) and t < self._partner_theta(other_id):
                continue  # dominated by this core object (Lemma 1)
            phi.append((t, other_id))
        if not phi:
            return False  # case i: o cannot improve CP

        t_best, partner_id = max(phi)
        partner = self._arrived[partner_id]
        new_pair = CorePair(t_best, item, partner)

        if not self.is_core(partner_id):
            # Case ii: replace the weakest core pair with (o, o').
            if len(self._pairs) >= self._num_pairs:
                self._pairs.pop()
            self._insert_pair(new_pair)
            return False
        # Case iii: o' is core; (o, o') replaces (o', o_y) and o_y is
        # treated as a fresh arrival.
        old_pair = next(p for p in self._pairs if p.contains(partner_id))
        self._pairs.remove(old_pair)
        kicked = old_pair.v if old_pair.u.object.object_id == partner_id else old_pair.u
        self._insert_pair(new_pair)
        self._requeued = kicked
        return True

    def _insert_pair(self, pair: CorePair) -> None:
        self._pairs.append(pair)
        self._pairs.sort(key=lambda p: -p.theta)
        if self._tracer.enabled:
            u, v = pair.members()
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
