"""Tests for the incremental core-pair maintenance (Algorithm 5).

The key property (paper §4.2): processing a stream of objects
incrementally must yield the same objective value as running the greedy
Algorithm 1 on the full set, and θ_T must grow monotonically.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.core_pairs import CorePairMaintainer
from repro.core.diversified_search import PairDistances
from repro.core.diversify import greedy_diversify
from repro.core.objective import DiversificationObjective
from repro.core.queries import ResultItem
from repro.network.distance import PairwiseDistanceComputer
from repro.network.graph import NetworkPosition
from repro.network.objects import SpatioTextualObject
from tests.conftest import make_paperlike_network
from tests.reference import network_distance, pair_by_pair, scalar_greedy


def make_stream(seed, n, delta_max=100.0):
    """Synthetic objects in the plane around the query point (origin).

    Distances to the query are the radii; pair distances are Euclidean,
    so the triangle inequality through the query — which Algorithm 5's
    cheap θ upper bound relies on, and which every road-network metric
    satisfies — holds by construction.  Objects arrive in non-decreasing
    distance order, as in the INE stream.
    """
    rng = np.random.default_rng(seed)
    coords = rng.uniform(-delta_max / 1.5, delta_max / 1.5, size=(n, 2))
    radii = np.hypot(coords[:, 0], coords[:, 1])
    order = np.argsort(radii)
    coords, radii = coords[order], radii[order]
    items = []
    for i in range(n):
        obj = SpatioTextualObject(i, NetworkPosition(0, 0.0), frozenset({"x"}))
        items.append(ResultItem(obj, float(radii[i])))
    points = {i: coords[i] for i in range(n)}

    def pd(a, b):
        pa = points[a.object.object_id]
        pb = points[b.object.object_id]
        return float(np.hypot(pa[0] - pb[0], pa[1] - pb[1]))

    return items, pd


def run_maintainer(items, pd, k, lam=0.8, delta_max=100.0):
    obj = DiversificationObjective(lam, delta_max)
    m = CorePairMaintainer(k, obj, pd, pair_by_pair(pd))
    m.bootstrap(items[:k])
    thetas = [m.theta_t]
    for it in items[k:]:
        m.add(it)
        thetas.append(m.theta_t)
    return m, obj, thetas


def objective_of(items, pd, obj):
    dists = [it.distance for it in items]

    def pair(i, j):
        return pd(items[i], items[j])

    return obj.objective(dists, pair)


class TestBasics:
    def test_k_validation(self):
        with pytest.raises(ValueError):
            CorePairMaintainer(
                1, DiversificationObjective(0.5, 10), lambda a, b: 0,
                pair_by_pair(lambda a, b: 0),
            )

    def test_bootstrap_twice_rejected(self):
        items, pd = make_stream(0, 6)
        m, _obj, _ = run_maintainer(items, pd, k=4)
        with pytest.raises(ValueError):
            m.bootstrap(items[:4])

    def test_duplicate_arrival_ignored(self):
        items, pd = make_stream(1, 8)
        obj = DiversificationObjective(0.8, 100)
        m = CorePairMaintainer(4, obj, pd, pair_by_pair(pd))
        m.bootstrap(items[:4])
        m.add(items[5])
        before = m.theta_t
        m.add(items[5])
        assert m.theta_t == before

    def test_core_objects_count(self):
        items, pd = make_stream(2, 20)
        m, _obj, _ = run_maintainer(items, pd, k=6)
        assert len(m.core_objects()) == 6

    def test_odd_k_fills_with_closest(self):
        items, pd = make_stream(3, 20)
        m, _obj, _ = run_maintainer(items, pd, k=5)
        out = m.core_objects()
        assert len(out) == 5

    def test_fewer_objects_than_k(self):
        items, pd = make_stream(4, 3)
        obj = DiversificationObjective(0.8, 100)
        m = CorePairMaintainer(8, obj, pd, pair_by_pair(pd))
        m.bootstrap(items)
        assert len(m.core_objects()) == 3

    def test_prune_core_object_rejected(self):
        items, pd = make_stream(5, 10)
        m, _obj, _ = run_maintainer(items, pd, k=4)
        core_id = m._pairs[0].u.object.object_id
        with pytest.raises(ValueError):
            m.prune(core_id)

    def test_prune_removes_from_active(self):
        items, pd = make_stream(6, 10)
        m, _obj, _ = run_maintainer(items, pd, k=4)
        non_core = [
            it.object.object_id
            for it in m.active_objects()
            if not m.is_core(it.object.object_id)
        ]
        if not non_core:
            pytest.skip("all objects became core")
        m.prune(non_core[0])
        assert all(
            it.object.object_id != non_core[0] for it in m.active_objects()
        )

    @pytest.mark.parametrize("k", [2, 4, 5, 8])
    def test_partner_theta_follows_every_pair_change(self, k):
        """After the bootstrap and every arrival (case ii replacements
        and case iii cascades included), ``partner_theta`` is the θ of
        the pair holding the object, ``inf`` off the pairs, and
        ``is_core`` agrees."""
        replaced = repartnered = 0
        for seed in range(8):
            items, pd = make_stream(seed, 40)
            m = CorePairMaintainer(
                k, DiversificationObjective(0.6, 100.0), pd, pair_by_pair(pd)
            )

            def partners():
                out = {}
                for pair in m._pairs:
                    u, v = pair.members()
                    assert u not in out and v not in out  # one pair each
                    out[u], out[v] = (v, pair.theta), (u, pair.theta)
                return out

            def check(want):
                for it in items:
                    oid = it.object.object_id
                    theta = want[oid][1] if oid in want else float("inf")
                    assert m.partner_theta(oid) == theta
                    assert m.is_core(oid) == (oid in want)

            m.bootstrap(items[:k])
            check(partners())
            for it in items[k:]:
                before = partners()
                m.add(it)
                after = partners()
                check(after)
                replaced += after.keys() != before.keys()
                # case iii: a core object kept, with a new partner
                repartnered += any(
                    oid in before and before[oid][0] != partner
                    for oid, (partner, _theta) in after.items()
                )
        assert replaced > 0 and repartnered > 0


class TestMonotonicity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_theta_t_grows_monotonically(self, seed):
        items, pd = make_stream(seed, 40)
        _m, _obj, thetas = run_maintainer(items, pd, k=8)
        finite = [t for t in thetas if t != float("-inf")]
        assert finite == sorted(finite)


class TestEquivalenceWithBatchGreedy:
    @pytest.mark.parametrize("seed,k,lam", [
        (0, 4, 0.8), (1, 4, 0.5), (2, 6, 0.8), (3, 8, 0.9), (4, 6, 0.0),
        (5, 4, 1.0), (6, 10, 0.7),
    ])
    def test_incremental_matches_batch_objective(self, seed, k, lam):
        items, pd = make_stream(seed, 30)
        obj = DiversificationObjective(lam, 100)
        m = CorePairMaintainer(k, obj, pd, pair_by_pair(pd))
        m.bootstrap(items[:k])
        for it in items[k:]:
            m.add(it)
        inc = objective_of(m.core_objects()[:k], pd, obj)
        batch = objective_of(
            greedy_diversify(items, k, obj, pair_by_pair(pd)), pd, obj
        )
        assert inc == pytest.approx(batch, rel=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_property_incremental_equals_batch(self, seed):
        items, pd = make_stream(seed, 24)
        obj = DiversificationObjective(0.8, 100)
        m = CorePairMaintainer(6, obj, pd, pair_by_pair(pd))
        m.bootstrap(items[:6])
        for it in items[6:]:
            m.add(it)
        inc = objective_of(m.core_objects()[:6], pd, obj)
        batch = objective_of(
            greedy_diversify(items, 6, obj, pair_by_pair(pd)), pd, obj
        )
        assert inc == pytest.approx(batch, rel=1e-9)


class TestUpperBoundSkip:
    def test_skipping_does_not_change_result(self):
        """The triangle-inequality skip must be semantically invisible."""
        items, pd = make_stream(11, 30)
        obj = DiversificationObjective(0.8, 100)

        calls = {"n": 0}

        def counting_pd(a, b):
            calls["n"] += 1
            return pd(a, b)

        m = CorePairMaintainer(6, obj, counting_pd, pair_by_pair(counting_pd))
        m.bootstrap(items[:6])
        for it in items[6:]:
            m.add(it)
        with_skip = objective_of(m.core_objects()[:6], pd, obj)
        exact_calls = calls["n"]
        # Exhaustive: n * (n-1) / 2 pair evaluations would be 435.
        assert exact_calls < 30 * 29 / 2
        batch = objective_of(
            greedy_diversify(items, 6, obj, pair_by_pair(pd)), pd, obj
        )
        assert with_skip == pytest.approx(batch, rel=1e-9)


# ----------------------------------------------------------------------
# The matrix bootstrap against the pair-by-pair one it replaced
# ----------------------------------------------------------------------
def scalar_bootstrap(items, k, objective, pair_distance):
    """The bootstrap as it was before it went through one pair matrix:
    every pair's θ in arrival order, the scalar greedy, then the pairing
    re-derived over the chosen objects.  Kept here as the reference.

    Returns ``(pairs, best_theta)``: ``[(θ, u_id, v_id), ...]`` in
    descending θ and ``{object_id: best θ against any other item}``.
    """
    num_pairs = k // 2

    def theta(a, b):
        return objective.theta(a.distance, b.distance, pair_distance(a, b))

    best_theta = {}
    for i, a in enumerate(items):
        for b in items[i + 1:]:
            t = theta(a, b)
            for it in (a, b):
                oid = it.object.object_id
                if t > best_theta.get(oid, float("-inf")):
                    best_theta[oid] = t
    remaining = scalar_greedy(items, 2 * num_pairs, objective, pair_distance)
    pairs = []
    while len(remaining) >= 2:
        best = None
        for i in range(len(remaining)):
            for j in range(i + 1, len(remaining)):
                t = theta(remaining[i], remaining[j])
                if best is None or t > best[0]:
                    best = (t, i, j)
        t, i, j = best
        pairs.append(
            (t, remaining[i].object.object_id, remaining[j].object.object_id)
        )
        remaining = [x for n, x in enumerate(remaining) if n not in (i, j)]
    pairs.sort(key=lambda p: -p[0])
    return pairs[:num_pairs], best_theta


@st.composite
def bootstrap_arrivals(draw):
    """``(k, items)``: up to ``k`` arrivals on the paper-like network.

    Positions, the query's among them, come from a few offsets on a few
    edges, so objects share edges and exact positions and their query
    distances tie; ids are shuffled, so tied arrivals are not in id
    order — as INE can emit them.  An item's distance is its network
    distance from the query (along the edge on the query's own edge, as
    INE measures it), and only items within δmax = 20 arrive.
    """
    network = make_paperlike_network()

    def position():
        edge = network.edge(draw(st.integers(0, network.num_edges - 1)))
        offset = edge.weight * draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))
        return NetworkPosition(edge.edge_id, offset)

    query = position()
    k = draw(st.integers(2, 7))
    n = draw(st.integers(0, k))
    ids = draw(st.permutations(range(n)))
    items = []
    for oid in ids:
        obj = SpatioTextualObject(oid, position(), frozenset({"x"}))
        d = network_distance(network, network, query, obj.position)
        if d <= 20.0:
            items.append(ResultItem(obj, d))
    items.sort(key=lambda it: it.distance)  # stable: ties keep drawn order
    return network, k, items


class TestMatrixBootstrap:
    @settings(max_examples=300, deadline=None)
    @given(bootstrap_arrivals(), st.sampled_from([0.0, 0.3, 0.8, 1.0]))
    def test_equals_the_scalar_bootstrap(self, arrivals, lam):
        network, k, items = arrivals
        n = len(items)
        obj = DiversificationObjective(lam, 20.0)
        batched = PairwiseDistanceComputer(network, network, cutoff=40.04)
        per_pair = PairwiseDistanceComputer(network, network, cutoff=40.04)
        pairs = PairDistances(batched)
        m = CorePairMaintainer(k, obj, pairs.distance, pairs.matrix)
        m.bootstrap(items)

        want_pairs, want_best = scalar_bootstrap(
            items, k, obj, PairDistances(per_pair).distance
        )
        assert [(p.theta, *p.members()) for p in m._pairs] == want_pairs
        assert m.theta_t == (
            want_pairs[-1][0] if len(want_pairs) == k // 2
            else float("-inf")
        )
        for it in items:
            oid = it.object.object_id
            assert m.best_theta(oid) == want_best.get(oid, float("-inf"))
        # Each distinct pair once, and the same sources ran.
        assert m.theta_evaluations == n * (n - 1) // 2
        assert batched.dijkstra_runs == per_pair.dijkstra_runs

    @settings(max_examples=100, deadline=None)
    @given(bootstrap_arrivals())
    def test_default_pair_matrix_asks_pair_by_pair(self, arrivals):
        """A pair source with no batched form (the pair-by-pair
        reference builder) fills the same matrix: same pairs, each pair
        asked once."""
        network, k, items = arrivals
        obj = DiversificationObjective(0.8, 20.0)
        computer = PairwiseDistanceComputer(network, network, cutoff=40.04)
        pd = PairDistances(computer).distance
        asked = []

        def counting_pd(a, b):
            asked.append((a.object.object_id, b.object.object_id))
            return pd(a, b)

        m = CorePairMaintainer(k, obj, counting_pd, pair_by_pair(counting_pd))
        m.bootstrap(items)
        want_pairs, _best = scalar_bootstrap(items, k, obj, pd)
        assert [(p.theta, *p.members()) for p in m._pairs] == want_pairs
        ids = [it.object.object_id for it in items]
        assert asked == [
            (a, b) for i, a in enumerate(ids) for b in ids[i + 1:]
        ]


# ----------------------------------------------------------------------
# The bisected θ row against the cell-by-cell arrival it replaced
# ----------------------------------------------------------------------
class ScalarRowMaintainer(CorePairMaintainer):
    """Algorithm 5's arrival as it was before its θ bound row became a
    bisection: every opponent's bound, the exact θ where the bound
    clears θ_T, and ``best_theta`` raised by every cell, bound or
    exact.  Kept here as the reference."""

    def _scalar_row(self, item, others, theta_t):
        out = {}
        for other in others:
            ub = self._objective.theta(
                item.distance, other.distance, item.distance + other.distance
            )
            out[other.object.object_id] = (
                ub if ub <= theta_t else self._theta(item, other)
            )
        return out

    def add(self, item):
        oid = item.object.object_id
        if oid in self._arrived:
            return
        others = list(self._arrived.values())
        self._arrived[oid] = item
        self._seen[oid] = item
        thetas = self._scalar_row(item, others, self.theta_t)
        for other_id, t in thetas.items():
            if t > self._best_theta.get(other_id, float("-inf")):
                self._best_theta[other_id] = t
        self._best_theta[oid] = max(thetas.values(), default=float("-inf"))
        current, current_thetas = item, thetas
        for _ in range(2 * self._num_pairs + 2):
            if not self._process_arrival(current, current_thetas):
                break
            current = self._requeued
            opponents = [
                other for other in self._arrived.values()
                if other.object.object_id != current.object.object_id
            ]
            current_thetas = self._scalar_row(current, opponents, self.theta_t)


#: Query distances arrivals tie on; with a pair distance at its ceiling
#: ``d_u + d_v`` a pair's exact θ is its bound, so an arrival's bound
#: against an opponent can equal θ_T to the bit.
GRID = [0.0, 12.5, 25.0, 37.5, 50.0, 62.5, 75.0, 100.0]


@st.composite
def arrival_streams(draw):
    """``(λ, k, items, pd, prune)``: a stream within δmax = 100 in
    non-decreasing distance with ties, tied arrivals in shuffled id
    order.  ``δ(a, b) = (d_a + d_b) · min(s_a, s_b)``, each ``s`` 1
    (the triangle ceiling through the query), ½ or ¼; ``prune[i]``
    says whether COM's loop would drop object ``i`` once its prune
    test passes."""
    lam = draw(st.sampled_from([0.0, 0.3, 0.5, 0.5 + 1e-12, 0.8, 1.0]))
    k = draw(st.integers(2, 8))
    dists = sorted(draw(st.lists(
        st.one_of(st.sampled_from(GRID), st.floats(0.0, 100.0)),
        min_size=k, max_size=30,
    )))
    n = len(dists)
    ids = draw(st.permutations(range(n)))
    shrink = draw(st.lists(
        st.sampled_from([1.0, 1.0, 0.5, 0.25]), min_size=n, max_size=n
    ))
    prune = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    items = [
        ResultItem(SpatioTextualObject(
            oid, NetworkPosition(0, 0.0), frozenset({"x"})
        ), d)
        for oid, d in zip(ids, dists)
    ]
    scale = dict(zip(ids, shrink))

    def pd(a, b):
        return (a.distance + b.distance) * min(
            scale[a.object.object_id], scale[b.object.object_id]
        )

    return lam, k, items, pd, prune


def twin_maintainers(lam, k, pd):
    """A maintainer and the reference, each logging its pair asks."""
    obj = DiversificationObjective(lam, 100.0)
    twins = []
    for cls in (CorePairMaintainer, ScalarRowMaintainer):
        log = []

        def logged(a, b, log=log):
            log.append((a.object.object_id, b.object.object_id))
            return pd(a, b)

        twins.append((cls(k, obj, logged, pair_by_pair(logged)), log))
    return twins


def prune_decisions(m):
    theta_t = m.theta_t
    return {
        it.object.object_id: m.best_theta(it.object.object_id) < theta_t
        for it in m.active_objects()
    }


class TestBisectedRow:
    @settings(max_examples=400, deadline=None)
    @given(arrival_streams())
    def test_equals_the_scalar_row(self, stream):
        """After every arrival: the same core pairs, θ_T, θ count, pair
        asks in the same order, and prune decision for every active
        object — and COM's loop prunes what both decide."""
        lam, k, items, pd, prune = stream
        (m, asked), (ref, ref_asked) = twin_maintainers(lam, k, pd)
        m.bootstrap(items[:k])
        ref.bootstrap(items[:k])
        for it in items[k:]:
            m.add(it)
            ref.add(it)
            assert [(p.theta, *p.members()) for p in m._pairs] == [
                (p.theta, *p.members()) for p in ref._pairs
            ]
            assert m.theta_t == ref.theta_t
            assert m.theta_evaluations == ref.theta_evaluations
            assert asked == ref_asked
            decisions = prune_decisions(m)
            assert decisions == prune_decisions(ref)
            for oid, drop in decisions.items():
                if drop and not m.is_core(oid) and prune[oid]:
                    m.prune(oid)
                    ref.prune(oid)

    def test_bound_equal_to_theta_t_keeps_its_object(self):
        """An arrival whose only pair within reach of θ_T has a bound
        equal to it, never asked exactly: its prune test reads that
        bound, as the cell-by-cell row did, and does not pass."""
        def item(oid, d):
            obj = SpatioTextualObject(oid, NetworkPosition(0, 0.0),
                                      frozenset({"x"}))
            return ResultItem(obj, d)

        a, b, c = item(0, 10.0), item(1, 20.0), item(2, 20.0)
        for cls in (CorePairMaintainer, ScalarRowMaintainer):
            ceiling = lambda u, v: u.distance + v.distance  # noqa: E731
            m = cls(2, DiversificationObjective(0.8, 100.0), ceiling,
                    pair_by_pair(ceiling))
            m.bootstrap([a, b])
            m.add(c)  # θ bound against a: θ(20, 10, 30) == θ_T
            assert m.theta_evaluations == 1
            assert m.theta_t == m._pairs[0].theta
            assert not m.best_theta(2) < m.theta_t

    @pytest.mark.parametrize("bad", [[30.0, 40.0, 35.0], [30.0, 100.5]])
    def test_out_of_order_arrival_rejected(self, bad):
        """The row is bisected on arrival order being distance order
        within δmax: anything else is refused, not answered wrong."""
        items = [
            ResultItem(SpatioTextualObject(
                oid, NetworkPosition(0, 0.0), frozenset({"x"})
            ), d)
            for oid, d in enumerate(bad)
        ]
        obj = DiversificationObjective(0.8, 100.0)
        one = lambda u, v: 1.0  # noqa: E731
        m = CorePairMaintainer(2, obj, one, pair_by_pair(one))
        m.bootstrap(items[:1])
        for it in items[1:-1]:
            m.add(it)
        with pytest.raises(ValueError):
            m.add(items[-1])
        with pytest.raises(ValueError):
            CorePairMaintainer(2, obj, one, pair_by_pair(one)).bootstrap(items)
