"""Renaming the nodes changes no answer.

The same network is built twice: once as generated, once with every
node id permuted (and spread over a wider range), nodes and edges
inserted in the same order, so edge and object ids stay the same but
node ids no longer follow insertion order.  An edge's reference node
``n1`` is its smaller id, so where the permutation swaps an edge's ends
every offset on it is measured from the other end: ``w − offset``.
Offsets are multiples of ``ulp(w)``, so ``w − offset`` and its mirror
back are exact and every network distance is the same float either way.

Ties on ``node_id`` order the charged search's settles
(``PairwiseDistanceComputer`` reads CCAM pages in ``(label, node_id)``
order) and the CSR rows; neither may reach an answer.  SK range, SK-kNN
and diversified answers (SEQ, COM with and without pruning, un-pinned,
at λ on both sides of ½) and ``f(S)`` must be bit-identical on both
distance backends.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.database import Database
from repro.core.queries import DiversifiedSKQuery, SKQuery
from repro.datasets.synthetic import random_planar_network
from repro.network.distance import single_source_distances
from repro.network.graph import NetworkPosition, RoadNetwork

VOCAB = ["cafe", "fuel", "park", "pizza"]
PLANS = [
    dict(method="seq"),
    dict(method="com"),
    dict(method="com", enable_pruning=False),
    dict(method=None),
]


def exact_offset(weight, fraction):
    """An offset whose mirror ``weight − offset`` is exact."""
    step = math.ulp(weight)
    return step * round(fraction * weight / step)


def world(network, ids, objects):
    """``network`` with node ``n`` renamed ``ids[n]``, and ``objects``
    (``(edge_id, offset, terms)`` against ``network``) placed on it."""
    renamed = RoadNetwork()
    for node in network.nodes():
        renamed.add_node(ids[node.node_id], node.point.x, node.point.y)
    flipped = {}
    for edge in sorted(network.edges(), key=lambda e: e.edge_id):
        made = renamed.add_edge(
            ids[edge.n1], ids[edge.n2], weight=edge.weight, length=edge.length
        )
        assert made.edge_id == edge.edge_id
        flipped[edge.edge_id] = ids[edge.n1] > ids[edge.n2]
    db = Database(renamed, buffer_pages=32)

    def position(edge_id, offset):
        if flipped[edge_id]:
            offset = renamed.edge(edge_id).weight - offset
        return NetworkPosition(edge_id, offset)

    for edge_id, offset, terms in objects:
        db.add_object(position(edge_id, offset), terms)
    db.freeze()
    return db, db.build_index("sif"), position


def answers(db, index, position, queries):
    out = []
    for backend in ("csgraph", "dijkstra"):
        db.use_distance_backend(backend)
        for edge_id, offset, term, delta_max, k, lam in queries:
            at = position(edge_id, offset)
            sk = db.sk_search(index, SKQuery.create(at, [term], delta_max))
            out.append([(it.object.object_id, it.distance) for it in sk])
            knn = db.sk_search(index, SKQuery.create(at, [term], 1e9, limit=k))
            out.append([(it.object.object_id, it.distance) for it in knn])
            query = DiversifiedSKQuery.create(
                at, [term], delta_max, k=k, lambda_=lam
            )
            for plan in PLANS:
                got = db.diversified_search(index, query, **plan)
                out.append((
                    [(it.object.object_id, it.distance) for it in got.items],
                    got.objective_value.hex(),
                ))
    return out


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.data())
def test_renaming_nodes_changes_no_answer(seed, data):
    rng = np.random.default_rng(seed)
    network = random_planar_network(int(rng.integers(12, 30)), seed=seed)
    n = network.num_nodes
    order = data.draw(st.permutations(range(n)))
    spread = data.draw(st.sampled_from([1, 3, 17]))
    ids = {node: spread * order[node] + 1 for node in range(n)}
    edges = sorted(network.edges(), key=lambda e: e.edge_id)

    def spot():
        edge = edges[int(rng.integers(len(edges)))]
        return edge.edge_id, exact_offset(edge.weight, float(rng.uniform()))

    objects = [
        (*spot(), [VOCAB[int(t)] for t in rng.choice(4, 2, replace=False)])
        for _ in range(int(rng.integers(20, 60)))
    ]
    queries = []
    for _ in range(3):
        edge_id, offset = spot()
        reach = single_source_distances(
            network, network, NetworkPosition(edge_id, offset)
        )
        delta_max = max(
            float(np.quantile(list(reach.values()), rng.uniform(0.3, 0.9))),
            1e-3,
        )
        queries.append((
            edge_id, offset, VOCAB[int(rng.integers(4))], delta_max,
            int(rng.integers(2, 6)), float(rng.choice([0.3, 0.8])),
        ))
    as_built = answers(*world(network, {v: v for v in range(n)}, objects),
                       queries)
    renamed = answers(*world(network, ids, objects), queries)
    assert renamed == as_built
    assert any(len(got[0]) >= 2 for got in as_built if isinstance(got, tuple))
