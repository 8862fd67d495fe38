"""Tests for the diversification objective and its pruning bounds."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.objective import _ROUNDING, DiversificationObjective
from repro.errors import QueryError

dist = st.floats(min_value=0.0, max_value=1500.0, allow_nan=False)
#: A query distance within δmax = 1000, and a λ.
within = st.floats(min_value=0.0, max_value=1000.0)
lam = st.floats(min_value=0.0, max_value=1.0)


class TestValidation:
    def test_bad_lambda(self):
        with pytest.raises(QueryError):
            DiversificationObjective(1.5, 100)

    def test_bad_delta_max(self):
        with pytest.raises(QueryError):
            DiversificationObjective(0.5, 0)


class TestComponents:
    def test_relevance_extremes(self):
        obj = DiversificationObjective(0.8, 1000)
        assert obj.relevance(0) == 1.0
        assert obj.relevance(1000) == 0.0
        assert obj.relevance(2000) == 0.0  # clamped

    def test_diversity_extremes(self):
        obj = DiversificationObjective(0.8, 1000)
        assert obj.diversity(0) == 0.0
        assert obj.diversity(2000) == 1.0
        assert obj.diversity(99999) == 1.0  # clamped

    def test_theta_pure_relevance(self):
        obj = DiversificationObjective(1.0, 1000)
        assert obj.theta(0, 0, 500) == 1.0
        assert obj.theta(1000, 1000, 500) == 0.0

    def test_theta_pure_diversity(self):
        obj = DiversificationObjective(0.0, 1000)
        assert obj.theta(0, 0, 2000) == 1.0
        assert obj.theta(0, 0, 0) == 0.0

    def test_theta_in_unit_interval(self):
        obj = DiversificationObjective(0.8, 1000)
        assert 0.0 <= obj.theta(300, 700, 800) <= 1.0

    @given(dist, dist, dist, dist)
    def test_theta_monotone_in_pair_distance(self, du, dv, d1, d2):
        obj = DiversificationObjective(0.6, 1000)
        lo, hi = sorted((d1, d2))
        assert obj.theta(du, dv, lo) <= obj.theta(du, dv, hi) + 1e-12

    @given(dist, dist, dist)
    def test_theta_antitone_in_query_distance(self, du, dv, pair):
        obj = DiversificationObjective(0.6, 1000)
        assert obj.theta(du, dv, pair) >= obj.theta(du + 100, dv, pair) - 1e-12


class TestObjectiveValue:
    def test_empty_and_singleton(self):
        obj = DiversificationObjective(0.8, 1000)
        assert obj.objective([], lambda i, j: 0) == 0.0
        assert obj.objective([0.0], lambda i, j: 0) == pytest.approx(0.8)

    def test_pair(self):
        obj = DiversificationObjective(0.5, 1000)
        # rel = (1 + 0.5)/2 = 0.75; div = 1000/2000 = 0.5.
        value = obj.objective([0.0, 500.0], lambda i, j: 1000.0)
        assert value == pytest.approx(0.5 * 0.75 + 0.5 * 0.5)

    def test_average_over_pairs(self):
        obj = DiversificationObjective(0.0, 1000)
        dists = [0.0, 0.0, 0.0]
        pair = {(0, 1): 2000.0, (0, 2): 0.0, (1, 2): 0.0}
        value = obj.objective(dists, lambda i, j: pair[(min(i, j), max(i, j))])
        assert value == pytest.approx(1.0 / 3.0)


class TestPruningBounds:
    """The bounds must dominate every θ the triangle inequality allows:
    an unvisited object lies at ``d ∈ [γ, δmax]`` from the query, and a
    pair at most at the sum of its two query distances."""

    @given(lam, within, within, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_unvisited_bound_dominates(self, lam, d1, d2, gap, stretch):
        obj = DiversificationObjective(lam, 1000)
        gamma = gap * min(d1, d2)  # both unvisited: at distance >= gamma
        pair = stretch * (d1 + d2)
        assert obj.theta(d1, d2, pair) <= obj.theta_ub_unvisited(gamma)

    @given(lam, within, within, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_visited_bound_dominates(self, lam, d_o, d_u, gap, stretch):
        obj = DiversificationObjective(lam, 1000)
        gamma = gap * d_u  # the unvisited object arrives at >= gamma
        pair = stretch * (d_o + d_u)
        assert obj.theta(d_o, d_u, pair) <= obj.theta_ub_visited(d_o, gamma)

    @given(lam, within, within)
    def test_never_above_the_papers_bounds(self, lam, d_o, gamma):
        """The paper's forms take the unvisited side's relevance at γ
        and its pair at ``2 δmax`` (``δ(o, q) + δmax``) separately."""
        obj = DiversificationObjective(lam, 1000)
        paper_unvisited = lam * obj.relevance(gamma) + (1.0 - lam)
        paper_visited = lam * (
            obj.relevance(d_o) + obj.relevance(gamma)
        ) / 2.0 + (1.0 - lam) * obj.diversity(d_o + 1000)
        assert obj.theta_ub_unvisited(gamma) <= paper_unvisited + _ROUNDING
        assert obj.theta_ub_visited(d_o, gamma) <= paper_visited + _ROUNDING

    @given(lam, within, within)
    def test_attained_at_the_triangle_ceiling(self, lam, d_o, gamma):
        """For λ ≥ ½ an unvisited object at γ whose path to ``o`` runs
        through the query meets the bound, up to its rounding margin;
        below ½, one at δmax does."""
        obj = DiversificationObjective(lam, 1000)
        d = gamma if lam >= 0.5 else 1000
        assert obj.theta_ub_visited(d_o, gamma) == (
            obj.theta(d_o, d, d_o + d) + _ROUNDING
        )
        assert obj.theta_ub_unvisited(gamma) == (
            obj.theta(d, d, d + d) + _ROUNDING
        )

    def test_tighter_than_the_paper_at_the_defaults(self):
        """λ 0.8, γ = δmax/2: the unvisited-pair bound is 0.50, where
        the paper's is 0.60."""
        obj = DiversificationObjective(0.8, 1000)
        assert obj.theta_ub_unvisited(500) == pytest.approx(0.5)
        assert 0.8 * obj.relevance(500) + 0.2 == pytest.approx(0.6)

    def test_bounds_decay_with_gamma(self):
        obj = DiversificationObjective(0.8, 1000)
        bounds = [obj.theta_ub_unvisited(g) for g in (0, 250, 500, 750, 1000)]
        assert bounds == sorted(bounds, reverse=True)

    def test_larger_lambda_decays_faster(self):
        """Fig. 15's early-termination claim: a larger λ shrinks the
        unvisited bound faster as the frontier advances."""
        lo = DiversificationObjective(0.5, 1000)
        hi = DiversificationObjective(0.9, 1000)
        drop_lo = lo.theta_ub_unvisited(0) - lo.theta_ub_unvisited(900)
        drop_hi = hi.theta_ub_unvisited(0) - hi.theta_ub_unvisited(900)
        assert drop_hi > drop_lo


class TestArrayScoring:
    """The vectorized twins are bit-identical to the scalar methods."""

    @given(st.lists(dist, min_size=1, max_size=40), st.floats(0.0, 1.0))
    def test_relevance_array_bit_identical(self, dists, lam):
        import numpy as np

        obj = DiversificationObjective(lam, 1000)
        got = obj.relevance_array(np.asarray(dists, dtype=np.float64))
        assert got.tolist() == [obj.relevance(d) for d in dists]

    @given(st.lists(dist, min_size=1, max_size=40))
    def test_diversity_array_bit_identical(self, pairs):
        import numpy as np

        obj = DiversificationObjective(0.7, 1000)
        got = obj.diversity_array(np.asarray(pairs, dtype=np.float64))
        assert got.tolist() == [obj.diversity(p) for p in pairs]

    @given(st.lists(dist, min_size=2, max_size=12), st.integers(0, 10**6))
    def test_theta_matrix_bit_identical(self, dists, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        obj = DiversificationObjective(0.7, 1000)
        n = len(dists)
        pair = rng.uniform(0.0, 2000.0, size=(n, n))
        pair = (pair + pair.T) / 2.0
        theta = obj.theta_matrix(np.asarray(dists, dtype=np.float64), pair)
        for i in range(n):
            for j in range(n):
                assert theta[i, j] == obj.theta(
                    dists[i], dists[j], float(pair[i, j])
                ), (i, j)

    def test_inf_pair_distances_clamp_like_scalar(self):
        import math

        import numpy as np

        obj = DiversificationObjective(0.5, 100)
        inf = math.inf
        got = obj.diversity_array(np.asarray([inf, 0.0, 250.0]))
        assert got.tolist() == [
            obj.diversity(inf), obj.diversity(0.0), obj.diversity(250.0)
        ]


class _KeptMatrix:
    """A stand-in pairwise computer whose one matrix is given."""

    def __init__(self, matrix):
        self.matrix = matrix

    def pairwise_matrix(self, positions, reach=0.0, span=None):
        assert len(positions) == len(self.matrix)
        return self.matrix


class TestPairDistancesObjective:
    """``PairDistances.objective_value`` scores f(S) from the θ matrix
    over the kept matrix's rows; it must equal the scalar
    :meth:`DiversificationObjective.objective` bit for bit."""

    @given(
        st.lists(dist, min_size=8, max_size=14),
        st.sampled_from([0, 1, 2, 5, 8]),
        st.floats(0.0, 1.0),
        st.sampled_from([300.0, 1000.0, 1500.0]),
        st.integers(0, 10**6),
    )
    def test_equals_the_scalar_objective(self, dists, k, lam, delta_max, seed):
        import numpy as np

        from repro.core.diversified_search import PairDistances
        from repro.core.queries import ResultItem
        from repro.network.graph import NetworkPosition
        from repro.network.objects import SpatioTextualObject

        rng = np.random.default_rng(seed)
        n = len(dists)
        pair = rng.uniform(0.0, 2.5 * delta_max, size=(n, n))
        pair = (pair + pair.T) / 2.0
        np.fill_diagonal(pair, 0.0)
        pool = [
            ResultItem(
                SpatioTextualObject(i, NetworkPosition(0, float(i)), {"x"}), d
            )
            for i, d in enumerate(dists)
        ]
        pairs = PairDistances(_KeptMatrix(pair))
        pairs.matrix(pool)
        picked = [int(i) for i in rng.permutation(n)[:k]]
        chosen = [pool[i] for i in picked]
        obj = DiversificationObjective(lam, delta_max)

        got = pairs.objective_value(obj, chosen)
        want = obj.objective(
            [it.distance for it in chosen],
            lambda i, j: float(pair[picked[i], picked[j]]),
        )
        assert got.hex() == want.hex()
