"""λ = 1 scores relevance alone, so a diversified answer is the k nearest.

With λ = 1 the pair score θ(u, v) falls as either object moves away
from the query, so Algorithm 1's rounds pick the nearest objects two at
a time and an odd ``k``'s last slot takes the next nearest.  Every plan
must return exactly the k nearest matches by ``(distance, id)``: SEQ,
COM with pruning on and off, and the planner's own choice.  COM used to
fill an odd ``k``'s last slot only from objects it had not pruned, and
came back one object short.
"""

import pytest

from repro.core.queries import SKQuery
from repro.workloads.queries import WorkloadConfig, generate_diversified_queries

PLANS = {
    "seq": dict(method="seq"),
    "com": dict(method="com"),
    "com-no-pruning": dict(method="com", enable_pruning=False),
    "auto": dict(method=None),
}


def k_nearest(db, index, query):
    """The k nearest matches within δmax, ordered by ``(distance, id)``."""
    matches = db.sk_search(
        index, SKQuery.create(query.position, sorted(query.terms),
                              query.delta_max),
    )
    ranked = sorted(
        (item.distance, item.object.object_id) for item in matches.items
    )
    return [object_id for _d, object_id in ranked[: query.k]]


@pytest.mark.parametrize("k", [3, 4, 5, 9])
@pytest.mark.parametrize("plan", sorted(PLANS))
def test_lambda_one_returns_the_k_nearest(tiny_db, tiny_indexes, k, plan):
    index = tiny_indexes["sif"]
    queries = [
        query
        for seed in range(1, 11)
        for query in generate_diversified_queries(tiny_db, WorkloadConfig(
            num_queries=20, num_keywords=1, k=k, lambda_=1.0, seed=seed,
        ))
    ]
    for query in queries:
        want = k_nearest(tiny_db, index, query)
        got = tiny_db.diversified_search(index, query, **PLANS[plan])
        assert [
            item.object.object_id for item in got.items
        ] == want, (plan, k, query)
