"""Tests for the greedy max-sum diversification (Algorithm 1).

The engine's greedy takes its pairs as one matrix; a test's pair source
is a closure, handed over through :func:`tests.reference.pair_by_pair`.
The pure-Python loop it must agree with is
:func:`tests.reference.scalar_greedy`.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.diversify import greedy_diversify
from repro.core.objective import DiversificationObjective
from repro.core.queries import ResultItem
from repro.network.graph import NetworkPosition
from repro.network.objects import SpatioTextualObject
from tests.reference import pair_by_pair, scalar_greedy


def make_items(dists):
    items = []
    for i, d in enumerate(dists):
        obj = SpatioTextualObject(i, NetworkPosition(0, 0.0), frozenset({"x"}))
        items.append(ResultItem(obj, d))
    return items


def euclid_pairs(points):
    """Pair distance from synthetic 1-d coordinates (by object id)."""

    def pd(a, b):
        return abs(points[a.object.object_id] - points[b.object.object_id])

    return pd


class TestBasics:
    def test_k_zero(self):
        assert greedy_diversify([], 0, DiversificationObjective(0.5, 100), None) == []

    def test_fewer_candidates_than_k(self):
        items = make_items([5.0, 2.0])
        got = greedy_diversify(
            items, 5, DiversificationObjective(0.5, 100),
            pair_by_pair(lambda a, b: 1.0),
        )
        assert [it.object.object_id for it in got] == [1, 0]  # distance order

    def test_exact_k_returned(self):
        items = make_items([1, 2, 3, 4, 5, 6])
        obj = DiversificationObjective(0.5, 100)
        got = greedy_diversify(items, 4, obj, pair_by_pair(lambda a, b: 1.0))
        assert len(got) == 4

    def test_pure_diversity_picks_far_pair(self):
        # Points on a line at 0, 1, 2, 100; diversity only.
        points = {0: 0.0, 1: 1.0, 2: 2.0, 3: 100.0}
        items = make_items([10.0, 10.0, 10.0, 10.0])
        obj = DiversificationObjective(0.0, 100)
        got = greedy_diversify(items, 2, obj, pair_by_pair(euclid_pairs(points)))
        assert {it.object.object_id for it in got} == {0, 3}

    def test_pure_relevance_picks_closest(self):
        items = make_items([50.0, 10.0, 90.0, 30.0])
        obj = DiversificationObjective(1.0, 100)
        got = greedy_diversify(items, 2, obj, pair_by_pair(lambda a, b: 0.0))
        assert {it.object.object_id for it in got} == {1, 3}

    def test_odd_k_appends_closest_remaining(self):
        points = {0: 0.0, 1: 100.0, 2: 50.0, 3: 51.0}
        items = make_items([5.0, 5.0, 1.0, 9.0])
        obj = DiversificationObjective(0.0, 100)
        got = greedy_diversify(items, 3, obj, pair_by_pair(euclid_pairs(points)))
        ids = {it.object.object_id for it in got}
        assert {0, 1} <= ids
        assert len(ids) == 3

    def test_result_sorted_by_distance(self):
        items = make_items([9.0, 1.0, 5.0, 7.0, 3.0, 2.0])
        obj = DiversificationObjective(0.8, 100)
        got = greedy_diversify(items, 4, obj, pair_by_pair(lambda a, b: 10.0))
        dists = [it.distance for it in got]
        assert dists == sorted(dists)


def brute_force_objective_max(items, k, obj, pd):
    """Exhaustive best f(S) over all size-k subsets."""
    best = 0.0
    for subset in combinations(items, k):
        dists = [it.distance for it in subset]

        def pair(i, j, subset=subset):
            return pd(subset[i], subset[j])

        best = max(best, obj.objective(dists, pair))
    return best


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_greedy_is_2_approximation(seed):
    """Max-sum greedy guarantees f(greedy) >= f(opt) / 2."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 9))
    k = 4
    coords = rng.uniform(0, 100, size=n)
    dists = rng.uniform(0, 100, size=n)
    items = make_items(list(dists))
    points = {i: float(coords[i]) for i in range(n)}
    obj = DiversificationObjective(0.5, 100)
    pd = euclid_pairs(points)
    got = greedy_diversify(items, k, obj, pair_by_pair(pd))
    got_dists = [it.distance for it in got]

    def pair(i, j):
        return pd(got[i], got[j])

    f_greedy = obj.objective(got_dists, pair)
    f_opt = brute_force_objective_max(items, k, obj, pd)
    assert f_greedy >= f_opt / 2.0 - 1e-9


class TestMatrixScalarIdentity:
    """The masked-argmax matrix path returns exactly what the scalar
    lazy-θ reference returns — same objects, same order — including
    under ties and unreachable (inf) pairs."""

    def run_both(self, items, k, obj, pd):
        scalar = scalar_greedy(items, k, obj, pd)
        array = greedy_diversify(items, k, obj, pair_by_pair(pd))
        return scalar, array

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 9))
    def test_random_pools_identical(self, seed, k):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 16))
        coords = rng.uniform(0, 100, size=n)
        dists = rng.uniform(0, 100, size=n)
        items = make_items(list(dists))
        points = {i: float(coords[i]) for i in range(n)}
        obj = DiversificationObjective(float(rng.uniform(0, 1)), 100)
        scalar, array = self.run_both(items, k, obj, euclid_pairs(points))
        assert [it.object.object_id for it in array] == [
            it.object.object_id for it in scalar
        ]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 8))
    def test_heavily_tied_pools_identical(self, seed, k):
        """Quantised inputs force θ ties; both paths must break them
        the same way (lexicographically-first pair of the sorted pool)."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 14))
        coords = rng.integers(0, 3, size=n).astype(float) * 50.0
        dists = rng.integers(0, 3, size=n).astype(float) * 25.0
        items = make_items(list(dists))
        points = {i: float(coords[i]) for i in range(n)}
        obj = DiversificationObjective(0.5, 100)
        scalar, array = self.run_both(items, k, obj, euclid_pairs(points))
        assert [it.object.object_id for it in array] == [
            it.object.object_id for it in scalar
        ]

    def test_all_pairs_tied(self):
        items = make_items([10.0] * 8)
        obj = DiversificationObjective(0.5, 100)
        scalar, array = self.run_both(items, 4, obj, lambda a, b: 60.0)
        assert [it.object.object_id for it in array] == [
            it.object.object_id for it in scalar
        ]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_inf_pair_distances_identical(self, seed):
        """Unreachable pairs (inf network distance) clamp to full
        diversity in both paths."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 12))
        dists = rng.uniform(0, 100, size=n)
        items = make_items(list(dists))
        base = {i: float(rng.uniform(0, 100)) for i in range(n)}
        cut = set(
            int(i) for i in rng.choice(n, size=max(1, n // 3), replace=False)
        )

        def pd(a, b):
            ia, ib = a.object.object_id, b.object.object_id
            if ia in cut or ib in cut:
                return float("inf")
            return abs(base[ia] - base[ib])

        obj = DiversificationObjective(0.5, 100)
        scalar, array = self.run_both(items, 5, obj, pd)
        assert [it.object.object_id for it in array] == [
            it.object.object_id for it in scalar
        ]

    def test_odd_k_extra_identical(self):
        items = make_items([3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3])
        obj = DiversificationObjective(0.3, 100)
        pd = lambda a, b: float(  # noqa: E731
            abs(a.object.object_id - b.object.object_id) * 10.0
        )
        scalar, array = self.run_both(items, 5, obj, pd)
        assert [it.object.object_id for it in array] == [
            it.object.object_id for it in scalar
        ]

    @pytest.mark.parametrize("n", [20, 60])
    def test_rounded_theta_pools_identical(self, n):
        """θ on a 0.01 grid — at λ = 0 it is the pair distance itself —
        so many cells tie, and every round after the first reads the
        working copy the earlier picks blanked."""
        rng = np.random.default_rng(n)
        obj = DiversificationObjective(0.0, 0.5)
        for _ in range(50):
            items = make_items(list(np.round(rng.uniform(0, 0.5, size=n), 1)))
            pair = np.round(rng.uniform(0.0, 1.0, size=(n, n)), 2)

            def pd(a, b, pair=pair):
                i, j = sorted((a.object.object_id, b.object.object_id))
                return float(pair[i, j])

            scalar, array = self.run_both(items, 10, obj, pd)
            assert [it.object.object_id for it in array] == [
                it.object.object_id for it in scalar
            ]
