"""The bi-criteria max-sum diversification objective (paper §2.1, §4.3).

The supplied text of Equations (2)-(4) is OCR-damaged; DESIGN.md §1
documents the reconstruction used here, which follows the max-sum
diversification of Gollapudi & Sharma and is consistent with every
qualitative statement in the paper:

``rel(u)    = 1 - δ(u, q) / δmax``              (relevance, in [0, 1])
``div(u, v) = δ(u, v) / (2 δmax)``              (diversity, in [0, 1])
``θ(u, v)   = λ (rel(u) + rel(v)) / 2 + (1 - λ) div(u, v)``
``f(S)      = (2 / (k (k-1))) Σ_{u<v} θ(u, v)``

A larger ``λ`` prioritises closeness, which shrinks the pruning bounds
faster as the expansion front ``γ`` advances and enables the early
termination the paper observes in Fig. 15.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from ..errors import QueryError

__all__ = ["DiversificationObjective"]

#: Far above the few ulps by which a computed θ (a value in [0, 1]) can
#: stray from the real value it rounds: the margin a computed θ bound
#: carries wherever it may be attained (the §4.3 bounds here, and
#: :meth:`CorePairMaintainer._theta_row
#: <repro.core.core_pairs.CorePairMaintainer._theta_row>`'s window).
_ROUNDING = 1e-12


@dataclass(frozen=True)
class DiversificationObjective:
    """θ / f evaluation and COM's pruning upper bounds (§4.3, with the
    unvisited side's relevance and span tied to one distance)."""

    lambda_: float
    delta_max: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.lambda_ <= 1.0:
            raise QueryError("lambda must lie in [0, 1]")
        if self.delta_max <= 0:
            raise QueryError("delta_max must be positive")

    # ------------------------------------------------------------------
    # Components
    # ------------------------------------------------------------------
    def relevance(self, dist_to_query: float) -> float:
        """``rel(u) = 1 - δ(u, q)/δmax``, clamped to [0, 1]."""
        return max(0.0, min(1.0, 1.0 - dist_to_query / self.delta_max))

    def diversity(self, pair_distance: float) -> float:
        """``div(u, v) = δ(u, v)/(2 δmax)``, clamped to [0, 1].

        The clamp is exact, not a heuristic: two objects within
        ``δmax`` of the query are within ``2 δmax`` of each other by
        the triangle inequality.
        """
        return max(0.0, min(1.0, pair_distance / (2.0 * self.delta_max)))

    def theta(self, dist_u: float, dist_v: float, pair_distance: float) -> float:
        """Diversification distance θ(u, v) of one object pair."""
        rel = (self.relevance(dist_u) + self.relevance(dist_v)) / 2.0
        return self.lambda_ * rel + (1.0 - self.lambda_) * self.diversity(
            pair_distance
        )

    def objective(
        self,
        dists_to_query: Sequence[float],
        pair_distance: Callable[[int, int], float],
    ) -> float:
        """``f(S)`` for a result set given per-object and pairwise distances.

        ``pair_distance(i, j)`` returns ``δ(S[i], S[j])``.  Singleton
        sets score their relevance; empty sets score 0.
        """
        k = len(dists_to_query)
        if k == 0:
            return 0.0
        if k == 1:
            return self.lambda_ * self.relevance(dists_to_query[0])
        total = 0.0
        for i, j in combinations(range(k), 2):
            total += self.theta(
                dists_to_query[i], dists_to_query[j], pair_distance(i, j)
            )
        return 2.0 * total / (k * (k - 1))

    # ------------------------------------------------------------------
    # Vectorized components
    # ------------------------------------------------------------------
    # Each *_array method performs the exact same IEEE-754 operations
    # as its scalar twin, in the same order, element-wise — so a theta
    # computed through the matrix path is bit-identical to the scalar
    # one and every downstream comparison (greedy tie-breaking, the
    # COM bootstrap's pairs) resolves the same way.

    def relevance_array(self, dists_to_query):
        """Vectorized :meth:`relevance` over an array of distances."""
        return np.clip(1.0 - dists_to_query / self.delta_max, 0.0, 1.0)

    def diversity_array(self, pair_distances):
        """Vectorized :meth:`diversity` over an array of pair distances."""
        return np.clip(
            pair_distances / (2.0 * self.delta_max), 0.0, 1.0
        )

    def theta_matrix(self, dists_to_query, pair_matrix):
        """The full θ matrix over a candidate pool.

        ``dists_to_query`` is a length-n array of per-object distances,
        ``pair_matrix`` the n×n symmetric pair-distance matrix; returns
        the n×n θ matrix (diagonal included but meaningless — greedy
        only reads the strict upper triangle).
        """
        rel = self.relevance_array(dists_to_query)
        rel_pair = (rel[:, None] + rel[None, :]) / 2.0
        return self.lambda_ * rel_pair + (
            1.0 - self.lambda_
        ) * self.diversity_array(pair_matrix)

    # ------------------------------------------------------------------
    # §4.3 pruning bounds
    # ------------------------------------------------------------------
    def theta_ub_unvisited(self, gamma: float) -> float:
        """Upper bound of θ between any two *unvisited* objects.

        Both lie at ``d ∈ [γ, δmax]`` from the query (objects arrive in
        distance order, within δmax), so their pair is at most the sum
        of the two (triangle inequality through the query) and
        ``θ(u, v) ≤ θ(d_u, d_v, d_u + d_v)``, which is linear in each
        distance with slope ``(1 − 2λ)/(2δmax)``: highest at
        ``d_u = d_v = d*`` (γ for ``λ ≥ ½``, δmax below).  Never above
        the paper's ``λ rel(γ) + 1 − λ``, which takes the relevance at γ
        and the pair at ``2δmax`` separately.  The bound is attained
        (two objects at γ on paths through ``q``), so a computed θ may
        sit an ulp above the computed ceiling: it is returned raised by
        :data:`_ROUNDING`, so COM cannot stop on a rounding error.
        """
        d = gamma if self.lambda_ >= 0.5 else self.delta_max
        return self.theta(d, d, d + d) + _ROUNDING

    def theta_ub_visited(self, dist_o: float, gamma: float) -> float:
        """Upper bound of θ between a visited object and any unvisited one.

        The unvisited object lies at ``d_u ∈ [γ, δmax]`` and its pair
        with ``o`` is at most ``δ(o, q) + d_u`` (triangle inequality
        through the query), so ``θ(o, u) ≤ θ(d_o, d_u, d_o + d_u)``:
        its relevance and its span are tied to the one ``d_u``, and the
        ceiling is highest at ``d_u = d*`` (γ for ``λ ≥ ½``, δmax
        below).  Never above the paper's form, relevance at γ and pair
        at ``δ(o, q) + δmax``.  Raised by :data:`_ROUNDING` as
        :meth:`theta_ub_unvisited` is.
        """
        d = gamma if self.lambda_ >= 0.5 else self.delta_max
        return self.theta(dist_o, d, dist_o + d) + _ROUNDING

    def streamed_pair_span(
        self, dists_to_query: Sequence[float], k: int
    ) -> float:
        """``S*``: every pair COM asks exactly after bootstrapping on
        objects at ``dists_to_query`` spans less than this, its span
        being ``s = δ(u, q) + δ(v, q)``.

        For objects within ``δmax``, the θ bound that stands in for an
        exact pair (the triangle inequality through the query, which
        :meth:`CorePairMaintainer._theta_row
        <repro.core.core_pairs.CorePairMaintainer._theta_row>` bisects
        each arrival's row on) is
        ``θ(d_u, d_v, s) = λ − (2λ − 1) · s / (2 δmax)``.  Let
        ``p = ⌊k/2⌋`` and ``d₍ᵢ₎`` the i-th smallest of
        ``dists_to_query`` (from 0).  The greedy's p-th pair has
        ``θ ≥ LB = λ (rel(d₍₂ₚ₋₂₎) + rel(d₍₂ₚ₋₁₎)) / 2``: diversity is
        never negative, and at most ``2(p − 1)`` closer objects are
        taken before it.  So θ_T starts at ``LB`` or above and never
        falls (Theorem 1), and a pair is asked exactly only when its
        bound clears θ_T.  For ``λ > ½`` the bound falls as ``s``
        grows, so an asked pair has ``s < 2 δmax (λ − LB) / (2λ − 1)``.
        ``inf`` for ``λ ≤ ½``, where the bound does not fall, and for
        fewer than ``2p`` objects, which leave CP short of ``p`` pairs.
        """
        p = k // 2
        if self.lambda_ <= 0.5 or p < 1 or len(dists_to_query) < 2 * p:
            return float("inf")
        near = sorted(dists_to_query)[2 * p - 2:2 * p]
        lb = self.lambda_ * (
            self.relevance(near[0]) + self.relevance(near[1])
        ) / 2.0
        return (
            2.0 * self.delta_max * (self.lambda_ - lb)
            / (2.0 * self.lambda_ - 1.0)
        )
