"""A diversified query resolves a *set* of pair distances in one call.

On the default backend that call is ``single_source_rows`` — one
``scipy.sparse.csgraph`` traversal for all the sources a pool needs —
and its fixed cost is several sources' worth, so what is budgeted here
is the number of calls: one per SEQ query whatever the pool size, one
for a COM query whose pool fits the bootstrap, one per standing-query
refresh.  The second half checks that asking for a whole set at once
changed no answer and no counter: the same queries with the matrix
asked of the computer one pair at a time, in the order ``objective()``
sums in, return the same objects, the same ``f(S)`` bit for bit, and
book the same Dijkstra runs, cache hits and cache misses.
"""

import pytest

import repro.network.distance as distance_module
from repro.core.incremental import IncrementalDiversifiedTopK
from repro.network.distance import PairwiseDistanceComputer
from repro.workloads.queries import WorkloadConfig, generate_diversified_queries
from tests.reference import matrix_from_pairs, sk_part

K = 6


@pytest.fixture(scope="module")
def sif(tiny_db):
    return tiny_db.build_index("sif", file_prefix="budget-sif")


@pytest.fixture(scope="module")
def queries(tiny_db):
    """Pools from empty to more than twice ``k``."""
    return [
        q
        for keywords, seed, delta_max in (
            (1, 21, None), (2, 22, None), (1, 24, 2500.0)
        )
        for q in generate_diversified_queries(
            tiny_db,
            WorkloadConfig(
                num_queries=12, num_keywords=keywords, k=K, seed=seed,
                delta_max=delta_max,
            ),
        )
    ]


@pytest.fixture()
def c_calls(monkeypatch):
    """Sources per ``single_source_rows`` call, one entry per call."""
    calls = []
    real = distance_module.single_source_rows

    def counting(network, sources, cutoff=distance_module.INF):
        calls.append(len(sources))
        return real(network, sources, cutoff)

    monkeypatch.setattr(distance_module, "single_source_rows", counting)
    return calls


def cross_edge(items):
    """Whether any two of the items lie on different edges."""
    return len({it.object.position.edge_id for it in items}) > 1


class TestCallBudget:
    def test_seq_makes_one_call_whatever_the_pool_size(
        self, tiny_db, sif, queries, c_calls
    ):
        sizes = set()
        for q in queries:
            del c_calls[:]
            result = tiny_db.diversified_search(sif, q, method="seq")
            pool = tiny_db.sk_search(sif, sk_part(q)).items
            assert result.stats.candidates == len(pool)
            assert len(c_calls) == (1 if cross_edge(pool) else 0), len(pool)
            assert result.stats.pairwise_dijkstras == sum(c_calls)
            sizes.add(len(pool))
        # No pair at all, pools the greedy returns whole, pools it picks
        # from, and pools past the planner's 2·k: all were seen.
        assert min(sizes) < 2 and max(sizes) > 2 * K, sizes
        assert any(2 <= n <= K for n in sizes), sizes
        assert any(K < n <= 2 * K for n in sizes), sizes

    def test_com_makes_one_call_when_the_pool_fits_the_bootstrap(
        self, tiny_db, sif, queries, c_calls
    ):
        checked = 0
        for q in queries:
            del c_calls[:]
            result = tiny_db.diversified_search(sif, q, method="com")
            if result.stats.candidates > K:
                continue
            checked += 1
            assert len(c_calls) == (1 if cross_edge(result) else 0)
            assert result.stats.pairwise_dijkstras == sum(c_calls)
        assert checked >= 5

    def test_standing_query_refresh_makes_one_call(
        self, tiny_db, sif, queries, c_calls
    ):
        checked = 0
        for q in queries:
            maintainer = IncrementalDiversifiedTopK(tiny_db, sif, q)
            pool = tiny_db.sk_search(sif, sk_part(q)).items
            assert maintainer.counters()["pool_size"] == len(pool)
            del c_calls[:]
            result = maintainer.result()
            assert len(c_calls) == (1 if cross_edge(pool) else 0)
            assert result.stats.pairwise_dijkstras == sum(c_calls)
            checked += cross_edge(pool)
        assert checked >= 10


class TestBatchingChangesNoAnswerAndNoCounter:
    @pytest.mark.parametrize("method", ["seq", "com"])
    def test_same_value_and_counters_as_pair_by_pair(
        self, tiny_db, sif, queries, method, monkeypatch
    ):
        batched = [
            tiny_db.diversified_search(sif, q, method=method) for q in queries
        ]
        monkeypatch.setattr(
            PairwiseDistanceComputer, "pairwise_matrix",
            lambda self, positions, reach=None, span=None: matrix_from_pairs(
                list(positions),
                lambda a, b: self.distance(a, b, reach=reach),
            ),
        )
        small = 0
        for q, got in zip(queries, batched):
            want = tiny_db.diversified_search(sif, q, method=method)
            assert got.object_ids() == want.object_ids()
            assert got.objective_value == want.objective_value  # bit for bit
            for counter in (
                "pairwise_dijkstras", "distance_cache_hits",
                "distance_cache_misses", "theta_evaluations", "candidates",
            ):
                assert getattr(got.stats, counter) == getattr(
                    want.stats, counter
                ), (counter, got.stats.candidates)
            small += 2 <= got.stats.candidates <= K
        assert small >= 5  # pools the greedy returns as they are
