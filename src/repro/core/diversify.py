"""Greedy max-sum diversification (paper Algorithm 1, §2.3).

Maximising the max-sum objective is NP-hard; the greedy algorithm of
Gollapudi & Sharma repeatedly picks the remaining pair with the largest
diversification distance θ and achieves a 2-approximation.  It assumes
the candidate objects and their pairwise distances are available — the
SEQ baseline feeds it everything Algorithm 3 returns.

Two evaluation paths produce **identical selections**:

* the scalar path (lazy per-pair θ cache, pure Python) — the readable
  reference the tests compare against; no query runs it;
* the array path every query runs: the caller supplies
  ``pair_matrix_builder`` and the whole θ matrix is evaluated at once
  (:meth:`~repro.core.objective.DiversificationObjective.theta_matrix`),
  each greedy round reduced by one masked ``argmax``
  (:func:`greedy_rounds`, which COM's bootstrap reads its core pairs
  off as well).

Bit-identical tie-breaking: the scalar loop walks pairs ``(i, j)`` of
the distance-sorted pool in lexicographic order keeping the first
strict maximum; ``argmax`` over the masked upper triangle in row-major
order *is* that first maximum, and the matrix θ values are computed
with the same IEEE operations as the scalar ones.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .objective import DiversificationObjective
from .queries import ResultItem

__all__ = ["greedy_diversify", "greedy_rounds", "matrix_from_pairs"]

PairDistance = Callable[[ResultItem, ResultItem], float]
#: Called with the distance-sorted pool; returns the n×n symmetric
#: pair-distance matrix aligned to it (numpy array).
PairMatrixBuilder = Callable[[Sequence[ResultItem]], "object"]


def matrix_from_pairs(
    items: Sequence[ResultItem], pair_distance: PairDistance
) -> "np.ndarray":
    """The pair matrix of ``items``, for a pair source with no batched
    form (Dijkstra through CCAM, a test's closure): asked one pair
    at a time in lexicographic ``(i, j)`` order — the order
    ``objective()`` sums in and the scalar greedy walks — so a caching
    source runs the same searches either way."""
    n = len(items)
    matrix = np.zeros((n, n))
    for i, j in combinations(range(n), 2):
        matrix[i, j] = matrix[j, i] = pair_distance(items[i], items[j])
    return matrix


def greedy_rounds(theta: "np.ndarray", num_pairs: int) -> List[Tuple[int, int]]:
    """Algorithm 1's rounds over the θ matrix of a sorted pool: up to
    ``num_pairs`` disjoint pairs ``(i, j)``, ``i < j``, in pick order,
    each the first maximum in row-major order among the pairs whose
    members are both still unpicked."""
    n = len(theta)
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    alive = np.ones(n, dtype=bool)
    rounds: List[Tuple[int, int]] = []
    for _ in range(min(num_pairs, n // 2)):
        mask = upper & alive[:, None] & alive[None, :]
        masked = np.where(mask, theta, -np.inf)
        flat = int(masked.argmax())  # first max in row-major order ==
        i, j = divmod(flat, n)       # lexicographically-first strict max
        rounds.append((i, j))
        alive[i] = alive[j] = False
    return rounds


def _greedy_from_matrix(
    pool: List[ResultItem],
    k: int,
    objective: DiversificationObjective,
    pair_matrix_builder: PairMatrixBuilder,
) -> List[ResultItem]:
    n = len(pool)
    dists = np.fromiter((it.distance for it in pool), np.float64, n)
    theta = objective.theta_matrix(dists, pair_matrix_builder(pool))
    chosen = [i for pair in greedy_rounds(theta, k // 2) for i in pair]
    if len(chosen) < k:
        # Odd k: add the closest remaining object — the lowest unpicked
        # index, since the pool is sorted.
        chosen.append(next(i for i in range(n) if i not in chosen))
    result = [pool[i] for i in chosen]
    result.sort(key=lambda it: (it.distance, it.object.object_id))
    return result


def greedy_diversify(
    candidates: Sequence[ResultItem],
    k: int,
    objective: DiversificationObjective,
    pair_distance: PairDistance,
    pair_matrix_builder: Optional[PairMatrixBuilder] = None,
) -> List[ResultItem]:
    """Select ``k`` diversified objects from ``candidates``.

    Each iteration picks the unused pair ``(u, v)`` maximising
    ``θ(u, v)`` (Algorithm 1 lines 2-4); with odd ``k`` one more object
    is appended (the paper picks arbitrarily; we take the closest
    remaining object for determinism).  Fewer than ``k`` candidates are
    returned as-is, ordered by distance.

    ``pair_matrix_builder`` switches the rounds
    to the vectorized matrix path — same selections, same order.
    """
    if k <= 0:
        return []
    pool = sorted(candidates, key=lambda it: (it.distance, it.object.object_id))
    if len(pool) <= k:
        return pool
    if pair_matrix_builder is not None:
        return _greedy_from_matrix(pool, k, objective, pair_matrix_builder)

    theta_cache: Dict[Tuple[int, int], float] = {}

    def theta_of(i: int, j: int) -> float:
        key = (i, j) if i < j else (j, i)
        value = theta_cache.get(key)
        if value is None:
            u, v = pool[key[0]], pool[key[1]]
            value = objective.theta(u.distance, v.distance, pair_distance(u, v))
            theta_cache[key] = value
        return value

    remaining = set(range(len(pool)))
    chosen: List[int] = []
    for _ in range(k // 2):
        best_pair: Tuple[int, int] = (-1, -1)
        best_theta = float("-inf")
        order = sorted(remaining)
        for a_pos, i in enumerate(order):
            for j in order[a_pos + 1 :]:
                t = theta_of(i, j)
                if t > best_theta:
                    best_theta = t
                    best_pair = (i, j)
        if best_pair[0] < 0:
            break
        chosen.extend(best_pair)
        remaining.discard(best_pair[0])
        remaining.discard(best_pair[1])
        if len(remaining) < 2:
            break
    if len(chosen) < k and remaining:
        # Odd k (or an exhausted pool): add the closest remaining object.
        extra = min(remaining)
        chosen.append(extra)
    result = [pool[i] for i in chosen[:k]]
    result.sort(key=lambda it: (it.distance, it.object.object_id))
    return result
