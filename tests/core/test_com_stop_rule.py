"""COM's stop rule: a core object is tested against its own pair's θ.

Algorithm 6 as printed keeps expanding while any active object's
visited bound ``theta_ub_visited(δ(o, q), γ)`` reaches θ_T.  COM tests a
*core* object against the θ of its own core pair instead: by Lemma 1 a
core object takes a new partner only at a θ no lower than that, which
is ≥ θ_T.  The exhaustive run (``enable_pruning=False``) is the oracle:
it processes every arrival, so an arrival the rule skipped that could
have changed the core pairs shows up as a different answer.

Two world families:

* random planar networks with ties (objects sharing a position);
* star networks queried at the hub — the family where a stop rule that
  exempts core objects from the test altogether goes wrong (a far
  object on a lone spoke arrives after it stopped and should have
  become a core object's new partner).  Random planar worlds almost
  never catch that.

On the same worlds, the bounds behind the rule are checked against the
θ every later arrival realises: none of them may undercut one.
"""

import math
from functools import lru_cache
from itertools import combinations
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, DiversifiedSKQuery
from repro.core import diversified_search
from repro.core.core_pairs import CorePairMaintainer
from repro.core.ine import INEExpansion
from repro.core.objective import DiversificationObjective
from repro.datasets.synthetic import random_planar_network
from repro.network.distance import (
    PAIRWISE_CUTOFF_FACTOR,
    PairwiseDistanceComputer,
    single_source_distances,
)
from repro.network.graph import NetworkPosition, RoadNetwork
from tests.reference import network_distance

SPOKE = 1000.0
HUB = NetworkPosition(0, 0.0)
STAR_LAMBDAS = [round(0.55 + 0.01 * i, 2) for i in range(45)]
VOCAB = ["cafe", "fuel", "park", "pizza", "books"]


def star_world(spokes, placements):
    """The hub (node 0) and ``spokes`` spokes of 1 000, edge ``s`` from
    the hub; one object with the term ``"x"`` per ``(spoke, offset)``,
    ids in placement order."""
    network = RoadNetwork()
    network.add_node(0, 0.0, 0.0)
    for s in range(spokes):
        angle = 2.0 * math.pi * s / spokes
        network.add_node(
            s + 1, SPOKE * math.cos(angle), SPOKE * math.sin(angle)
        )
        network.add_edge(0, s + 1, weight=SPOKE)
    db = Database(network, buffer_pages=64)
    for spoke, offset in placements:
        db.add_object(NetworkPosition(spoke, offset), ["x"])
    db.freeze()
    return db, db.build_index("sif")


def drawn_star(rng):
    """2–3 spokes and 3–6 objects uniform in (1, 999) on random spokes."""
    spokes = int(rng.integers(2, 4))
    n = int(rng.integers(3, 7))
    return star_world(spokes, [
        (int(rng.integers(spokes)), float(rng.uniform(1.0, 999.0)))
        for _ in range(n)
    ])


def star_query(k, lam):
    return DiversifiedSKQuery.create(HUB, ["x"], SPOKE, k=k, lambda_=lam)


@lru_cache(maxsize=None)
def planar_world(seed):
    """36 nodes, 70 objects with two of five terms; every seventh object
    shares the previous one's position, so query distances tie."""
    rng = np.random.default_rng(seed)
    network = random_planar_network(36, seed=seed)
    db = Database(network, buffer_pages=64)
    edges = list(network.edges())
    position = None
    for i in range(70):
        if position is None or i % 7:
            edge = edges[int(rng.integers(len(edges)))]
            position = NetworkPosition(
                edge.edge_id, float(rng.uniform(0.0, edge.weight))
            )
        terms = rng.choice(len(VOCAB), size=2, replace=False)
        db.add_object(position, [VOCAB[int(t)] for t in terms])
    db.freeze()
    return db, db.build_index("sif"), edges


def ids(result):
    return [item.object.object_id for item in result.items]


def com_search(db, index, query, enable_pruning=True):
    """COM pinned, with a pairwise computer of its own on the CCAM
    store: the ``dijkstra`` backend's searches and page charges."""
    computer = PairwiseDistanceComputer(
        db.ccam, db.network, cutoff=PAIRWISE_CUTOFF_FACTOR * query.delta_max
    )
    return diversified_search.diversified_search(
        db.ccam, db.network, index, query, "com", computer, enable_pruning
    )


def pruned_run(db, index, query):
    """COM with its pruning, and the maintainer as the loop left it."""
    made = []

    class Recording(CorePairMaintainer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    with mock.patch.object(diversified_search, "CorePairMaintainer", Recording):
        result = com_search(db, index, query)
    return result, made[0]


def assert_matches_exhaustive(db, index, query):
    """Pruned COM ≡ exhaustive COM: ids, order and ``f(S)`` exactly."""
    result, maintainer = pruned_run(db, index, query)
    exhaustive = com_search(db, index, query, enable_pruning=False)
    assert ids(result) == ids(exhaustive), query
    assert result.objective_value == exhaustive.objective_value, query
    return result, maintainer


def check_bounds(db, index, query, result, maintainer, distances):
    """At the pruned run's termination γ, no object that arrives later
    in the exhaustive run undercuts a bound the stop test relied on.

    Returns ``(later arrivals checked, whether the paper's rule would
    have kept expanding here)``.  ``distances`` memoises exact pair
    distances by object id."""
    if not result.stats.expansion_terminated_early:
        return 0, False
    stream = INEExpansion(
        db.ccam, db.network, index, query.position, query.terms,
        query.delta_max,
    ).run_to_completion()
    seen, later = stream[: result.stats.candidates], stream[
        result.stats.candidates:
    ]
    gamma = seen[-1].distance
    active = maintainer.active_objects()
    assert {it.object.object_id for it in active} <= {
        it.object.object_id for it in seen
    }
    objective = DiversificationObjective(query.lambda_, query.delta_max)

    def theta(a, b):
        key = tuple(sorted((a.object.object_id, b.object.object_id)))
        if key not in distances:
            distances[key] = network_distance(
                db.network, db.network, a.object.position, b.object.position
            )
        return objective.theta(a.distance, b.distance, distances[key])

    cores = [item for pair in maintainer._pairs for item in (pair.u, pair.v)]
    for o in later:
        for o_i in active:
            assert theta(o_i, o) <= objective.theta_ub_visited(
                o_i.distance, gamma
            )
        for o_x in cores:
            assert theta(o, o_x) < maintainer.partner_theta(
                o_x.object.object_id
            )
    ub_unvisited = objective.theta_ub_unvisited(gamma)
    for o, o2 in combinations(later, 2):
        assert theta(o, o2) <= ub_unvisited
    paper_would_continue = any(
        objective.theta_ub_visited(o_x.distance, gamma) >= maintainer.theta_t
        for o_x in cores
    )
    return len(later), paper_would_continue


@st.composite
def star_layouts(draw):
    """``(spokes, placements)``: offsets uniform or on a three-point
    grid, so objects on different spokes tie on query distance."""
    spokes = draw(st.integers(2, 3))
    offset = st.one_of(
        st.floats(1.0, 999.0), st.sampled_from([250.0, 500.0, 750.0])
    )
    placements = draw(st.lists(
        st.tuples(st.integers(0, spokes - 1), offset), min_size=3, max_size=6
    ))
    return spokes, placements


@settings(max_examples=40, deadline=None)
@given(star_layouts())
def test_star_worlds_match_the_exhaustive_run(layout):
    """Every λ on the grid and k ∈ {2, 3, 4}; with three objects k = 4
    exceeds the pool."""
    db, index = star_world(*layout)
    distances = {}
    for k in (2, 3, 4):
        for lam in STAR_LAMBDAS:
            query = star_query(k, lam)
            result, maintainer = assert_matches_exhaustive(db, index, query)
            check_bounds(db, index, query, result, maintainer, distances)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 3),
    st.integers(0, 10**6),
    st.floats(0.0, 1.0),
    st.sampled_from(VOCAB),
    st.floats(0.2, 0.9),
    st.sampled_from([0.0, 0.3, 0.5, 0.8, 1.0]),
    st.sampled_from([2, 3, 4, 5, 8]),
)
def test_planar_worlds_match_the_exhaustive_run(
    seed, edge_pick, fraction, term, quantile, lam, k
):
    db, index, edges = planar_world(seed)
    edge = edges[edge_pick % len(edges)]
    position = NetworkPosition(edge.edge_id, fraction * edge.weight)
    reach = single_source_distances(db.network, db.network, position)
    radius = max(float(np.quantile(list(reach.values()), quantile)), 1e-3)
    query = DiversifiedSKQuery.create(position, [term], radius, k=k, lambda_=lam)
    result, maintainer = assert_matches_exhaustive(db, index, query)
    check_bounds(db, index, query, result, maintainer, {})


def test_pinned_star_world():
    """A star the core-exempt rule gets wrong: four objects on spoke 1
    (ids 1, 3, 0, 4 at 288, 514, 780, 826) and one alone on spoke 0
    (id 2 at 925), which arrives last.  Exempt core objects from the
    stop test and COM stops before it arrives, answering ``[1, 3]``;
    it must take it as object 1's new partner."""
    db, index = drawn_star(np.random.default_rng(62))
    query = star_query(k=2, lam=0.69)
    exhaustive = com_search(db, index, query, enable_pruning=False)
    assert ids(exhaustive) == [1, 2]
    assert_matches_exhaustive(db, index, query)


def test_bounds_checks_are_not_vacuous():
    """Over drawn stars the bounds meet later arrivals, and on some
    queries the stop happened where the paper's rule — every active
    object against θ_T — would still have expanded."""
    checked = earlier = 0
    for seed in range(40):
        db, index = drawn_star(np.random.default_rng(seed))
        distances = {}
        for k in (2, 3, 4):
            for lam in STAR_LAMBDAS[::4]:
                query = star_query(k, lam)
                result, maintainer = pruned_run(db, index, query)
                later, paper_would_continue = check_bounds(
                    db, index, query, result, maintainer, distances
                )
                checked += later
                earlier += paper_would_continue
    assert checked > 0 and earlier > 0
