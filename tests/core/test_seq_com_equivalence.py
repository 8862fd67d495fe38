"""Property-style equivalence of COM and SEQ on randomized instances.

The paper argues COM's pruning and early termination are exact (given
distinct distances, §4.3); this exercises every COM variant — pruning
on/off — against the SEQ objective on small random
road networks.  The three runs of a query share one pairwise computer,
so each COM variant starts on node maps SEQ already computed: reading a
kept map instead of running its Dijkstra cannot change an answer either.
"""

import numpy as np
import pytest

from repro import Database, DiversifiedSKQuery
from repro.core.diversified_search import diversified_search
from repro.datasets.synthetic import random_planar_network
from repro.network.distance import single_source_distances
from repro.network.graph import NetworkPosition

VOCAB = ["cafe", "fuel", "park", "pizza", "books"]


def build_instance(seed):
    rng = np.random.default_rng(seed)
    network = random_planar_network(36, seed=seed)
    db = Database(network, buffer_pages=64)
    edges = list(network.edges())
    for _ in range(70):
        edge = edges[int(rng.integers(len(edges)))]
        offset = float(rng.uniform(0.0, edge.weight))
        terms = rng.choice(len(VOCAB), size=2, replace=False)
        db.add_object(
            NetworkPosition(edge.edge_id, offset), [VOCAB[int(t)] for t in terms]
        )
    db.freeze()
    index = db.build_index("sif", file_prefix=f"equiv-{seed}")
    return db, index, rng, edges


def make_query(db, rng, edges):
    edge = edges[int(rng.integers(len(edges)))]
    q_pos = NetworkPosition(edge.edge_id, float(rng.uniform(0.0, edge.weight)))
    reach = single_source_distances(db.network, db.network, q_pos)
    radius = max(float(np.quantile(list(reach.values()), 0.7)), 1e-3)
    term = VOCAB[int(rng.integers(len(VOCAB)))]
    return DiversifiedSKQuery.create(q_pos, [term], radius, k=4, lambda_=0.7)


@pytest.mark.parametrize("seed", [3, 11, 29, 41])
def test_com_variants_match_seq_through_shared_cache(seed):
    db, index, rng, edges = build_instance(seed)
    reused = 0
    for _ in range(4):
        query = make_query(db, rng, edges)
        shared = db.pairwise_computer(query.delta_max)
        args = (db.ccam, db.network, index, query)
        seq = diversified_search(*args, "seq", shared)
        hits = shared.cache_hits
        variants = {
            "pruning": diversified_search(*args, "com", shared),
            "no-pruning": diversified_search(
                *args, "com", shared, enable_pruning=False
            ),
        }
        for name, com in variants.items():
            assert com.objective_value == pytest.approx(
                seq.objective_value, rel=1e-6, abs=1e-9
            ), f"seed={seed} variant={name} terms={sorted(query.terms)}"
            assert len(com) == len(seq)
        reused += shared.cache_hits - hits
    # The variants actually read maps the shared computer kept.
    assert reused > 0
