"""The ``dijkstra`` backend charges the pages the paper's loop reads.

A charged computer searches in C like the default one, then reads each
settled node's adjacency through its provider in ``(label, node_id)``
order.  That is the order the heap loop (:func:`seeded_distances`)
settles nodes in, since weights are positive and the labels are the
same floats, so the provider sees the very same ``neighbors`` calls.
Worlds are drawn where ties are everywhere: grids with weights in
{1, 2}, sources at offsets 0, w/4, w/2 and w, an injected self-loop
edge (which no ``RoadNetwork`` builder makes, so it is put in the way a
corrupt store would hold one), and an island nothing reaches, searched
with ``cutoff = inf`` too.
"""

import math
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.database import Database
from repro.network.distance import (
    PairwiseDistanceComputer,
    seed_distances,
    seeded_distances,
)
from repro.network.graph import NetworkPosition, RoadNetwork


class Recording:
    """An adjacency provider that logs every node it is asked for."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.calls = []

    def neighbors(self, node_id):
        self.calls.append(node_id)
        return self.inner.neighbors(node_id)


def inject_self_loop(network: RoadNetwork, node_id: int, weight: float):
    """A loop edge at ``node_id``, its two adjacency entries included."""
    edge_id = network.num_edges
    at = next(n for n in network.nodes() if n.node_id == node_id).point
    host = next(
        network.edge(e) for e, _o, _w in network.neighbors(node_id)
    )
    network._edges[edge_id] = SimpleNamespace(
        edge_id=edge_id, n1=node_id, n2=node_id, length=weight,
        weight=weight, p1=at, p2=at, mbr=host.mbr,
    )
    network._adjacency[node_id] += [(edge_id, node_id, weight)] * 2


@st.composite
def tied_worlds(draw):
    """``(database, sources, cutoff)`` on a grid with an island."""
    rows, cols = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    # Ids out of insertion order, so the CSR row order is no tie-break.
    ids = draw(st.permutations(range(rows * cols)))
    network = RoadNetwork()
    for r in range(rows):
        for c in range(cols):
            network.add_node(ids[r * cols + c], float(c), float(r))
    unit = st.sampled_from([1.0, 2.0])
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                network.add_edge(
                    ids[node], ids[node + 1], weight=draw(unit), length=1.0
                )
            if r + 1 < rows:
                network.add_edge(
                    ids[node], ids[node + cols], weight=draw(unit), length=1.0
                )
    island = rows * cols
    for k in range(draw(st.integers(2, 3))):
        network.add_node(island + k, float(cols + 2 + k), 0.0)
        if k:
            network.add_edge(
                island + k - 1, island + k, weight=draw(unit), length=1.0
            )
    if draw(st.booleans()):
        inject_self_loop(
            network, draw(st.sampled_from(ids)),
            draw(st.sampled_from([2.0, 4.0])),
        )

    def position(edge_id, share):
        return NetworkPosition(
            edge_id, network.edge(edge_id).weight * share
        )

    sources = draw(st.lists(
        st.builds(
            position, st.integers(0, network.num_edges - 1),
            st.sampled_from([0.0, 0.25, 0.5, 1.0]),
        ),
        min_size=1, max_size=6,
    ))
    cutoff = draw(st.sampled_from([math.inf, 1.0, 2.0, 3.5, 6.0]))
    return Database(network, buffer_pages=4), sources, cutoff


@settings(max_examples=300, deadline=None)
@given(tied_worlds(), st.sampled_from([None, 0.0]))
def test_charged_reads_are_the_python_loops(world, reach):
    """``reach`` would cut an uncharged search at ``cutoff / 2``; a
    charged one runs to ``cutoff``, as the loop did."""
    db, sources, cutoff = world
    charged = Recording(db.ccam)
    computer = PairwiseDistanceComputer(charged, db.network, cutoff=cutoff)
    computer._run_dijkstras(sources, reach)
    loop = Recording(db.ccam)
    for source in sources:
        seeded_distances(loop, seed_distances(db.network, source), cutoff)
    assert charged.calls == loop.calls
