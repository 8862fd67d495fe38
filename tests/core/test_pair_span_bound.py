"""COM's pairwise rows stop where a read can reach.

A COM bootstrap searches its sources only as far as the pairs COM will
ever ask exactly may span (``DiversificationObjective.
streamed_pair_span``: θ_T starts at the greedy's ⌊k/2⌋-th pair, never
falls, and a pair is asked only when its θ bound clears it).  A closed
pool searches to twice its reach.  Neither may change an answer: on the
planar and star worlds of ``test_com_stop_rule``, COM through the
default computer must return what it returns through one whose every
search runs to the full cutoff — the same items, the same ``f(S)``
bits, the same θ evaluations and candidates — pinned and un-pinned,
with and without pruning.  No streamed ask may read a row short of its
pair, so no source runs twice before the answer's matrix; and every
pair asked exactly after the bootstrap spans less than the bound.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DiversifiedSKQuery
from repro.core import diversified_search as search_module
from repro.core.core_pairs import CorePairMaintainer
from repro.core.diversified_search import PairDistances, diversified_search
from repro.core.objective import DiversificationObjective
from repro.network import distance as distance_module
from repro.network.distance import (
    PAIRWISE_CUTOFF_FACTOR,
    PairwiseDistanceComputer,
    single_source_distances,
)
from repro.network.graph import NetworkPosition
from tests.core.test_com_stop_rule import (
    VOCAB,
    drawn_star,
    planar_world,
    star_layouts,
    star_query,
    star_world,
)

LAMBDAS = (0.2, 0.5, 0.75, 0.95)
KS = (2, 3, 4, 6)
PLANS = [
    (algorithm, pruning)
    for algorithm in ("com", "auto")
    for pruning in (True, False)
]


class FullSearch(PairwiseDistanceComputer):
    """Every search runs to the cutoff, whatever the reads may span."""

    def _limit(self, reach, span=math.inf):
        return self.cutoff


class Probe:
    """Records, for one run, the sources each C call receives up to
    the answer's matrix, the bootstrap's query distances and the span
    of every pair asked one at a time after it."""

    def __init__(self):
        self.sources, self.buffers, self.spans = [], [], []
        self.answering = False

    def patches(self):
        probe = self
        real_rows = distance_module.single_source_rows
        real_value = PairDistances.objective_value

        def rows(network, sources, cutoff=math.inf):
            if not probe.answering:
                probe.sources.extend((p.edge_id, p.offset) for p in sources)
            return real_rows(network, sources, cutoff)

        def objective_value(self, *args, **kwargs):
            probe.answering = True
            return real_value(self, *args, **kwargs)

        class Recording(CorePairMaintainer):
            def __init__(self, k, objective, pair_distance, **kwargs):
                def asked(a, b):
                    probe.spans.append(a.distance + b.distance)
                    return pair_distance(a, b)

                super().__init__(k, objective, asked, **kwargs)

            def bootstrap(self, items):
                probe.buffers.append([it.distance for it in items])
                super().bootstrap(items)

        return (
            mock.patch.object(distance_module, "single_source_rows", rows),
            mock.patch.object(
                PairDistances, "objective_value", objective_value
            ),
            mock.patch.object(search_module, "CorePairMaintainer", Recording),
        )

    def bound(self, query):
        """``streamed_pair_span`` of the run's bootstrap (``inf``
        without one)."""
        if not self.buffers:
            return math.inf
        return DiversificationObjective(
            query.lambda_, query.delta_max
        ).streamed_pair_span(self.buffers[0], query.k)

    def run(self, *args, **kwargs):
        first, second, third = self.patches()
        with first, second, third:
            return diversified_search(*args, **kwargs)


def run(db, index, query, algorithm, pruning, computer_class):
    computer = computer_class(
        db.network, db.network,
        cutoff=PAIRWISE_CUTOFF_FACTOR * query.delta_max,
    )
    probe = Probe()
    result = probe.run(
        db.ccam, db.network, index, query, algorithm, computer,
        enable_pruning=pruning,
    )
    return result, probe


def assert_cut_equals_full(db, index, query):
    for algorithm, pruning in PLANS:
        cut, probe = run(
            db, index, query, algorithm, pruning, PairwiseDistanceComputer
        )
        full, _ = run(db, index, query, algorithm, pruning, FullSearch)
        where = (query, algorithm, pruning)
        assert [it.object.object_id for it in cut.items] == [
            it.object.object_id for it in full.items
        ], where
        assert cut.objective_value.hex() == full.objective_value.hex(), where
        for counter in ("theta_evaluations", "candidates"):
            assert getattr(cut.stats, counter) == getattr(
                full.stats, counter
            ), (where, counter)
        assert len(probe.sources) == len(set(probe.sources)), where
        bound = probe.bound(query)
        assert all(span <= bound * (1 + 1e-9) for span in probe.spans), where


@settings(max_examples=30, deadline=None)
@given(star_layouts())
def test_star_worlds_answer_as_full_searches(layout):
    db, index = star_world(*layout)
    for k in KS:
        for lam in LAMBDAS:
            assert_cut_equals_full(db, index, star_query(k, lam))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 3),
    st.integers(0, 10**6),
    st.floats(0.0, 1.0),
    st.sampled_from(VOCAB),
    st.floats(0.2, 0.9),
    st.sampled_from(LAMBDAS),
    st.sampled_from(KS),
)
def test_planar_worlds_answer_as_full_searches(
    seed, edge_pick, fraction, term, quantile, lam, k
):
    db, index, edges = planar_world(seed)
    edge = edges[edge_pick % len(edges)]
    position = NetworkPosition(edge.edge_id, fraction * edge.weight)
    reach = single_source_distances(db.network, db.network, position)
    radius = max(float(np.quantile(list(reach.values()), quantile)), 1e-3)
    query = DiversifiedSKQuery.create(
        position, [term], radius, k=k, lambda_=lam
    )
    assert_cut_equals_full(db, index, query)


def planar_query(seed, pick, term, quantile, k, lam):
    db, index, edges = planar_world(seed)
    edge = edges[pick % len(edges)]
    position = NetworkPosition(edge.edge_id, 0.5 * edge.weight)
    reach = single_source_distances(db.network, db.network, position)
    radius = max(float(np.quantile(list(reach.values()), quantile)), 1e-3)
    return db, index, DiversifiedSKQuery.create(
        position, [term], radius, k=k, lambda_=lam
    )


def test_the_bound_cuts_searches_short():
    """Not vacuous: at λ > ½ arrivals are streamed past a finite bound
    and the cut searches settle fewer labels than full ones; at λ ≤ ½
    the bound is off and the searches settle no more."""
    settled = {True: [0, 0], False: [0, 0]}
    streamed = 0
    queries = [
        (*drawn_star(np.random.default_rng(seed)), star_query(k, lam))
        for seed in range(6) for k in (2, 4) for lam in LAMBDAS
    ] + [
        planar_query(seed, pick, term, 0.7, 4, lam)
        for seed in range(2) for pick in range(0, 60, 6)
        for term in VOCAB[:2] for lam in LAMBDAS
    ]
    for db, index, query in queries:
        active = query.lambda_ > 0.5
        for column, computer_class in enumerate(
            (PairwiseDistanceComputer, FullSearch)
        ):
            labels = []
            real = distance_module.single_source_rows

            def counting(network, sources, cutoff=math.inf):
                rows = real(network, sources, cutoff)
                labels.append(int(np.isfinite(rows).sum()))
                return rows

            with mock.patch.object(
                distance_module, "single_source_rows", counting
            ):
                _, probe = run(db, index, query, "com", True, computer_class)
            settled[active][column] += sum(labels)
        if probe.bound(query) < math.inf:
            assert active
            streamed += len(probe.spans)
    assert streamed > 0
    assert settled[True][0] < settled[True][1]
    assert settled[False][0] <= settled[False][1]
