"""A query's pairwise node maps live and die with the query.

``Database.pairwise_computer`` builds one computer per query and nothing
carries its maps to the next, so a query's pairwise counters are its
computer's counters, and running the same query again repeats the same
pairwise work exactly.  A standing query's answer is one such query.
"""

import pytest

from repro.core.database import Database
from repro.core.incremental import IncrementalDiversifiedTopK
from repro.datasets.catalog import build_dataset
from repro.workloads.queries import WorkloadConfig, generate_diversified_queries
from tests.conftest import TINY_PROFILE


@pytest.fixture(scope="module", params=["csgraph", "dijkstra"])
def db(request):
    db = build_dataset(TINY_PROFILE)
    db.use_distance_backend(request.param)
    return db


@pytest.fixture(scope="module")
def sif(db):
    return db.build_index("sif", file_prefix="per-query-sif")


@pytest.fixture(scope="module")
def queries(db):
    return generate_diversified_queries(
        db, WorkloadConfig(num_queries=6, num_keywords=2, k=5, seed=33)
    )


def pairwise_counts(stats):
    return (
        stats.pairwise_dijkstras,
        stats.distance_cache_hits,
        stats.distance_cache_misses,
    )


@pytest.mark.parametrize("method", ["seq", "com"])
def test_a_repeated_query_repeats_its_pairwise_work(db, sif, queries, method):
    total = 0
    for query in queries:
        first = db.diversified_search(sif, query, method=method)
        again = db.diversified_search(sif, query, method=method)
        assert pairwise_counts(again.stats) == pairwise_counts(first.stats)
        assert again.object_ids() == first.object_ids()
        total += first.stats.pairwise_dijkstras
    assert total > 0


def answer(db, sif, query, method):
    """One diversified answer: through the engine, or the standing
    query's maintained answer."""
    if method == "standing":
        return IncrementalDiversifiedTopK(db, sif, query).result()
    return db.diversified_search(sif, query, method=method)


@pytest.mark.parametrize("method", ["seq", "com", "standing"])
def test_stats_are_the_counters_of_the_querys_computer(
    db, sif, queries, method, monkeypatch
):
    built = []

    def spy(delta_max, *args, **kwargs):
        computer = Database.pairwise_computer(db, delta_max, *args, **kwargs)
        built.append(computer)
        return computer

    monkeypatch.setattr(db, "pairwise_computer", spy)
    for query in queries:
        result = answer(db, sif, query, method)
        (computer,) = built
        built.clear()
        assert pairwise_counts(result.stats) == (
            computer.dijkstra_runs, computer.cache_hits, computer.cache_misses
        )
        assert result.stats.distance_backend == computer.backend_name
        assert result.stats.stage_seconds["pairwise_dijkstra"] == (
            computer.dijkstra_seconds
        )
