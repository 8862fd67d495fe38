"""COM's stop bounds carry a rounding margin, and a world that needs it.

The bounds are θ at the triangle ceiling through the query,
``θ(d_o, d*, d_o + d*)``, and that ceiling is attained by any pair whose
path runs through ``q``.  A network distance summed edge by edge along
such a path can round above the float sum of its two query distances,
so the θ it realises can sit an ulp above the computed ceiling.  Here
five chains of tenths, each summing to 1 in decimal, meet at the query:
object 4's distance to object 3 rounds two ulps above ``d_3 + d_4``.
A bound without its margin stops COM after four arrivals, before
object 4, whose θ against object 3 it undercuts.
"""

import math

from repro import Database, DiversifiedSKQuery
from repro.core.ine import INEExpansion
from repro.core.objective import DiversificationObjective
from repro.network.graph import NetworkPosition, RoadNetwork
from tests.core.test_com_stop_rule import (
    assert_matches_exhaustive,
    check_bounds,
)
from tests.reference import network_distance

#: Edge weights of each chain, from the hub out; one object sits at
#: the far end of each, ids in chain order.
CHAINS = [
    [0.1, 0.1, 0.1, 0.3, 0.1, 0.2, 0.1],
    [0.3, 0.3, 0.1, 0.1, 0.1, 0.1],
    [0.1, 0.1, 0.2, 0.3, 0.2, 0.1],
    [0.1, 0.3, 0.2, 0.4],
    [0.1, 0.1, 0.4, 0.1, 0.2, 0.1],
]
HUB = NetworkPosition(0, 0.0)  # the first chain's first edge, at node 0


def chain_world():
    network = RoadNetwork()
    network.add_node(0, 0.0, 0.0)
    ends, node = [], 1
    for c, weights in enumerate(CHAINS):
        angle = 2.0 * math.pi * c / len(CHAINS)
        previous = 0
        for step, weight in enumerate(weights, start=1):
            network.add_node(
                node, step * math.cos(angle), step * math.sin(angle)
            )
            edge = network.add_edge(previous, node, weight=weight)
            previous, node = node, node + 1
        ends.append(NetworkPosition(edge.edge_id, edge.weight))
    db = Database(network, buffer_pages=64)
    for position in ends:
        db.add_object(position, ["x"])
    db.freeze()
    return db, db.build_index("sif")


def test_pair_outruns_the_sum_of_its_query_distances():
    db, index = chain_world()
    stream = INEExpansion(
        db.ccam, db.network, index, HUB, {"x"}, 2.0
    ).run_to_completion()
    assert stream[-1].object.object_id == 4  # the last arrival
    by_id = {it.object.object_id: it for it in stream}
    o3, o4 = by_id[3], by_id[4]
    pair = network_distance(
        db.network, db.network, o3.object.position, o4.object.position
    )
    assert pair > o3.distance + o4.distance
    objective = DiversificationObjective(0.75, 2.0)
    assert objective.theta(o3.distance, o4.distance, pair) > objective.theta(
        o3.distance, o4.distance, o3.distance + o4.distance
    )


def test_com_takes_the_arrival_the_ceiling_undercuts():
    db, index = chain_world()
    for lam in (0.75, 0.8):
        query = DiversifiedSKQuery.create(HUB, ["x"], 2.0, k=2, lambda_=lam)
        result, maintainer = assert_matches_exhaustive(db, index, query)
        check_bounds(db, index, query, result, maintainer, {})
        assert result.stats.candidates == len(CHAINS), lam
