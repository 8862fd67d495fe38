"""Scaling every edge weight scales every answer, and changes nothing else.

Double every weight through ``db.update_edge_weight``, and double the
query's offset and ``delta_max`` with it.  Multiplying by 2.0 is exact
in binary floating point, and so is every sum and ratio of doubled
numbers, so each answer must come back bit for bit: the same object
ids in the same order, every distance exactly twice the old one, and
the same ``f(S)`` (relevance and diversity are distances over
``delta_max``).  SK range, SEQ and COM with pruning on and off all
run before and after, on TINY worlds of a few seeds.
"""

from dataclasses import replace

import pytest

from repro.datasets.catalog import build_dataset
from repro.network.graph import NetworkPosition
from repro.workloads.queries import WorkloadConfig, generate_diversified_queries
from tests.conftest import TINY_PROFILE
from tests.reference import sk_part

PLANS = {
    "seq": dict(method="seq"),
    "com": dict(method="com"),
    "com-no-pruning": dict(method="com", enable_pruning=False),
}


def answers(db, index, queries):
    """Every plan's answer to every query, as plain values."""
    out = []
    for query in queries:
        sk = db.sk_search(index, sk_part(query))
        out.append(("sk", [(it.object.object_id, it.distance) for it in sk]))
        for plan, options in PLANS.items():
            got = db.diversified_search(index, query, **options)
            out.append((plan, [
                (it.object.object_id, it.distance) for it in got.items
            ], got.objective_value))
    return out


def doubled(query):
    position = NetworkPosition(
        query.position.edge_id, 2.0 * query.position.offset
    )
    return replace(query, position=position, delta_max=2.0 * query.delta_max)


@pytest.mark.parametrize("seed", [5, 11, 23])
def test_doubling_every_weight_doubles_every_distance(seed):
    db = build_dataset(TINY_PROFILE, seed=seed)
    index = db.build_index("sif", file_prefix="scaling")
    queries = [
        query
        for workload_seed in (1, 2)
        for query in generate_diversified_queries(db, WorkloadConfig(
            num_queries=10, num_keywords=1, k=4, seed=workload_seed,
        ))
    ]
    before = answers(db, index, queries)
    assert any(len(answer[1]) >= 4 for answer in before)

    for edge in list(db.network.edges()):
        db.update_edge_weight(edge.edge_id, 2.0 * edge.weight, [index])
    after = answers(db, index, [doubled(query) for query in queries])

    want = [
        (plan, [(oid, 2.0 * d) for oid, d in items], *objective)
        for plan, items, *objective in before
    ]
    assert after == want
