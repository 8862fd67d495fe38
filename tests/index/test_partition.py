"""Tests for the edge-partitioning cost model and solvers (paper §3.3).

Includes the paper's own worked example (Fig. 3): five objects
``o1(t1,t3), o2(t2,t3), o3(t1), o4(t1), o5(t1,t4)`` on one edge, the
query set ``Q = {q1: {t1,t3}, q2: {t2,t4}, q3: {t1,t2}}``, and the cut
between ``o2`` and ``o3``.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.partition import (
    dp_partition,
    false_hit_cost,
    greedy_partition,
    partition_cost,
    segments_from_cuts,
)
from repro.network.objects import Keywords

F = frozenset

#: The paper's Fig. 3 objects, in visiting order along the edge.
FIG3_OBJECTS = [
    F({"t1", "t3"}),
    F({"t2", "t3"}),
    F({"t1"}),
    F({"t1"}),
    F({"t1", "t4"}),
]
FIG3_LOG = [
    (F({"t1", "t3"}), 1 / 3),  # q1: true hit
    (F({"t2", "t4"}), 1 / 3),  # q2: false hit on the whole edge
    (F({"t1", "t2"}), 1 / 3),  # q3: false hit on the whole edge
]


class TestFalseHitCost:
    def test_true_hit_costs_nothing(self):
        assert false_hit_cost(FIG3_OBJECTS, F({"t1", "t3"})) == 0

    def test_false_hit_costs_whole_group(self):
        # Paper: ξ(q2, e) = 5 and ξ(q3, e) = 5.
        assert false_hit_cost(FIG3_OBJECTS, F({"t2", "t4"})) == 5
        assert false_hit_cost(FIG3_OBJECTS, F({"t1", "t2"})) == 5

    def test_signature_failure_costs_nothing(self):
        # q.T = {t1, t5}: t5 absent, fails the signature test.
        assert false_hit_cost(FIG3_OBJECTS, F({"t1", "t5"})) == 0

    def test_empty_group(self):
        assert false_hit_cost([], F({"t1"})) == 0

    def test_single_keyword_queries(self):
        assert false_hit_cost(FIG3_OBJECTS, F({"t1"})) == 0  # o1 matches


class TestSegmentsFromCuts:
    def test_no_cuts(self):
        assert segments_from_cuts(5, []) == [(0, 4)]

    def test_paper_cut(self):
        # Cut after o2 (index 1): e1 = {o1, o2}, e2 = {o3, o4, o5}.
        assert segments_from_cuts(5, [1]) == [(0, 1), (2, 4)]

    def test_multiple_cuts(self):
        assert segments_from_cuts(5, [0, 3]) == [(0, 0), (1, 3), (4, 4)]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            segments_from_cuts(5, [4])
        with pytest.raises(ValueError):
            segments_from_cuts(5, [-1])


class TestPartitionCostPaperExample:
    def test_whole_edge_cost(self):
        # ξ(Q, whole edge) = (0 + 5 + 5) / 3.
        assert partition_cost(FIG3_OBJECTS, [], FIG3_LOG) == pytest.approx(10 / 3)

    def test_paper_partition_cost(self):
        # With the Fig. 3 cut: ξ(q1, P) = 0, ξ(q2, P) = 0, ξ(q3, P) = 2.
        assert partition_cost(FIG3_OBJECTS, [1], FIG3_LOG) == pytest.approx(2 / 3)

    def test_per_query_breakdown(self):
        segs = segments_from_cuts(5, [1])
        e1 = FIG3_OBJECTS[0:2]
        e2 = FIG3_OBJECTS[2:5]
        assert false_hit_cost(e1, F({"t1", "t3"})) == 0
        assert false_hit_cost(e2, F({"t1", "t3"})) == 0
        assert false_hit_cost(e1, F({"t2", "t4"})) == 0  # fails signature
        assert false_hit_cost(e2, F({"t2", "t4"})) == 0  # fails signature
        assert false_hit_cost(e1, F({"t1", "t2"})) == 2  # false hit
        assert false_hit_cost(e2, F({"t1", "t2"})) == 0  # fails signature
        assert segs == [(0, 1), (2, 4)]


def brute_force_best(objects, cuts, log):
    """Exhaustive minimum over every set of exactly <= cuts positions."""
    m = len(objects)
    best = partition_cost(objects, [], log)
    for c in range(1, min(cuts, m - 1) + 1):
        for positions in combinations(range(m - 1), c):
            best = min(best, partition_cost(objects, positions, log))
    return best


class TestDPPartition:
    def test_paper_example_finds_the_cut(self):
        cuts, cost = dp_partition(FIG3_OBJECTS, 1, FIG3_LOG)
        assert cuts == (1,)
        assert cost == pytest.approx(2 / 3)

    def test_zero_cuts(self):
        cuts, cost = dp_partition(FIG3_OBJECTS, 0, FIG3_LOG)
        assert cuts == ()
        assert cost == pytest.approx(10 / 3)

    def test_empty_objects(self):
        assert dp_partition([], 2, FIG3_LOG) == ((), 0.0)

    def test_more_cuts_never_hurt(self):
        _, c1 = dp_partition(FIG3_OBJECTS, 1, FIG3_LOG)
        _, c2 = dp_partition(FIG3_OBJECTS, 2, FIG3_LOG)
        _, c3 = dp_partition(FIG3_OBJECTS, 3, FIG3_LOG)
        assert c3 <= c2 <= c1

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 3))
    def test_dp_is_optimal_vs_brute_force(self, seed, cuts):
        rng = np.random.default_rng(seed)
        vocab = ["a", "b", "c", "d"]
        m = int(rng.integers(2, 7))
        objects = [
            frozenset(
                rng.choice(vocab, size=int(rng.integers(1, 3)), replace=False)
            )
            for _ in range(m)
        ]
        log = [
            (frozenset(rng.choice(vocab, size=2, replace=False)), 0.5)
            for _ in range(2)
        ]
        got_cuts, got_cost = dp_partition(objects, cuts, log)
        # DP may use up to `cuts` cuts; compare against the best over
        # all partitions with at most that many cuts... the DP uses
        # exactly c cuts, so take the min over c' <= cuts via its own
        # monotonicity and brute force over all subsets.
        best = brute_force_best(objects, cuts, log)
        best_exact = min(
            dp_partition(objects, c, log)[1] for c in range(0, cuts + 1)
        )
        assert best_exact == pytest.approx(best)
        assert got_cost == pytest.approx(
            partition_cost(objects, got_cuts, log)
        )


class TestGreedyPartition:
    def test_paper_example(self):
        cuts, cost = greedy_partition(FIG3_OBJECTS, 1, FIG3_LOG)
        assert cuts == (1,)
        assert cost == pytest.approx(2 / 3)

    def test_never_worse_than_no_partition(self):
        base = partition_cost(FIG3_OBJECTS, [], FIG3_LOG)
        _, cost = greedy_partition(FIG3_OBJECTS, 3, FIG3_LOG)
        assert cost <= base

    def test_single_object_edge(self):
        cuts, cost = greedy_partition([F({"a"})], 2, FIG3_LOG)
        assert cuts == ()

    def test_stops_without_improvement(self):
        # All objects identical: no cut can help.
        objects = [F({"a", "b"})] * 4
        log = [(F({"a", "b"}), 1.0)]
        cuts, _ = greedy_partition(objects, 3, log)
        assert cuts == ()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_greedy_never_beats_dp(self, seed):
        rng = np.random.default_rng(seed)
        vocab = ["a", "b", "c", "d", "e"]
        m = int(rng.integers(2, 8))
        objects = [
            frozenset(
                rng.choice(vocab, size=int(rng.integers(1, 4)), replace=False)
            )
            for _ in range(m)
        ]
        log = [
            (frozenset(rng.choice(vocab, size=2, replace=False)), 1 / 3)
            for _ in range(3)
        ]
        cuts = 2
        _, dp_cost = dp_partition(objects, cuts, log)
        dp_best = min(dp_partition(objects, c, log)[1] for c in range(cuts + 1))
        greedy = greedy_partition(objects, cuts, log)
        assert greedy[1] >= dp_best - 1e-9
        # Objects' stored keywords partition exactly as frozensets do.
        stored = [Keywords(o) for o in objects]
        assert greedy_partition(stored, cuts, log) == greedy
        assert dp_partition(stored, cuts, log)[1] == dp_cost
