"""Greedy max-sum diversification (paper Algorithm 1, §2.3).

Maximising the max-sum objective is NP-hard; the greedy algorithm of
Gollapudi & Sharma repeatedly picks the remaining pair with the largest
diversification distance θ and achieves a 2-approximation.  It assumes
the candidate objects and their pairwise distances are available — the
SEQ baseline feeds it everything Algorithm 3 returns.

One evaluation path: the caller supplies ``pair_matrix_builder`` and
the whole θ matrix is evaluated at once
(:meth:`~repro.core.objective.DiversificationObjective.theta_matrix`),
each greedy round reduced by one masked ``argmax``
(:func:`greedy_rounds`, which COM's bootstrap reads its core pairs off
as well).

Tie-breaking: each round keeps the first maximum in row-major order
over the upper triangle of the distance-sorted pool — the
lexicographically first ``(i, j)`` of the largest θ.  The scalar loop
the tests hold it to (``tests/reference.py``) walks the pairs in that
order keeping the first strict maximum, with θ computed by the same
IEEE operations.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

import numpy as np

from .objective import DiversificationObjective
from .queries import ResultItem

__all__ = ["greedy_diversify", "greedy_rounds"]

#: Called with the distance-sorted pool; returns the n×n symmetric
#: pair-distance matrix aligned to it (numpy array).
PairMatrixBuilder = Callable[[Sequence[ResultItem]], "object"]


def greedy_rounds(theta: "np.ndarray", num_pairs: int) -> List[Tuple[int, int]]:
    """Algorithm 1's rounds over the θ matrix of a sorted pool: up to
    ``num_pairs`` disjoint pairs ``(i, j)``, ``i < j``, in pick order,
    each the first maximum in row-major order among the pairs whose
    members are both still unpicked.

    One masked working copy serves every round: a pick blanks its two
    rows and columns.  ``theta`` itself is never written."""
    n = len(theta)
    work = np.where(np.triu(np.ones((n, n), dtype=bool), k=1), theta, -np.inf)
    rounds: List[Tuple[int, int]] = []
    for _ in range(min(num_pairs, n // 2)):
        flat = int(work.argmax())  # first max in row-major order ==
        i, j = divmod(flat, n)     # lexicographically-first strict max
        rounds.append((i, j))
        work[i] = work[j] = -np.inf
        work[:, i] = work[:, j] = -np.inf
    return rounds


def greedy_diversify(
    candidates: Sequence[ResultItem],
    k: int,
    objective: DiversificationObjective,
    pair_matrix_builder: PairMatrixBuilder,
) -> List[ResultItem]:
    """Select ``k`` diversified objects from ``candidates``.

    Each iteration picks the unused pair ``(u, v)`` maximising
    ``θ(u, v)`` (Algorithm 1 lines 2-4); with odd ``k`` one more object
    is appended (the paper picks arbitrarily; we take the closest
    remaining object for determinism).  Fewer than ``k`` candidates are
    returned as-is, ordered by distance.

    ``pair_matrix_builder`` is called once, with the distance-sorted
    pool, and nothing else asks for a distance.
    """
    if k <= 0:
        return []
    pool = sorted(candidates, key=lambda it: (it.distance, it.object.object_id))
    n = len(pool)
    if n <= k:
        return pool
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
