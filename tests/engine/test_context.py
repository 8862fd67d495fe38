"""ExecutionContext: per-query state ownership and lifetime merges."""

import pytest

from repro.core.ine import INEExpansion
from repro.core.queries import QueryStats, SKQuery
from repro.engine import ExecutionContext, plan_sk
from repro.workloads.queries import WorkloadConfig, generate_sk_queries


@pytest.fixture(scope="module")
def sif(tiny_db):
    return tiny_db.build_index("sif", file_prefix="context-sif")


@pytest.fixture(scope="module")
def query(tiny_db):
    return generate_sk_queries(
        tiny_db, WorkloadConfig(num_queries=1, num_keywords=1, seed=19)
    )[0]


def _run_expansion(db, index, query, counters):
    expansion = INEExpansion(
        db.ccam, db.network, index, query.position, query.terms,
        query.delta_max, counters,
    )
    return expansion.run_to_completion()


class TestStateRouting:
    def test_context_owns_counters_and_io(self, tiny_db, sif, query):
        plan = plan_sk(tiny_db, sif, query)
        loads_before = sif.lifetime_counters.objects_loaded
        global_reads_before = tiny_db.disk.stats.snapshot().logical_reads

        with ExecutionContext(tiny_db, plan) as ctx:
            _run_expansion(tiny_db, sif, query, ctx.counters)
            assert ctx.io_scope.logical_reads > 0
            # Shared lifetime state is untouched while the query runs.
            assert sif.lifetime_counters.objects_loaded == loads_before
            per_query_loads = ctx.counters.objects_loaded
            per_query_reads = ctx.io_scope.logical_reads

        # On exit the execution's work is folded into the lifetime totals.
        assert sif.lifetime_counters.objects_loaded == (
            loads_before + per_query_loads
        )
        assert tiny_db.disk.stats.snapshot().logical_reads == (
            global_reads_before + per_query_reads
        )

    def test_finalise_fills_stats_from_context(self, tiny_db, sif, query):
        plan = plan_sk(tiny_db, sif, query)
        with ExecutionContext(tiny_db, plan) as ctx:
            _run_expansion(tiny_db, sif, query, ctx.counters)
            stats = QueryStats()
            ctx.finalise(stats)
            assert stats.io.logical_reads == ctx.io_scope.logical_reads
            assert stats.objects_loaded == ctx.counters.objects_loaded
            assert stats.false_hit_objects == ctx.counters.false_hit_objects
            assert stats.buffer_evictions == ctx.io_scope.evictions
            assert "signature" in stats.stage_seconds

    def test_finalise_outside_context_raises(self, tiny_db, sif, query):
        ctx = ExecutionContext(tiny_db, plan_sk(tiny_db, sif, query))
        with pytest.raises(RuntimeError):
            ctx.finalise(QueryStats())


class TestExceptionSafety:
    def test_counters_merged_when_query_raises(self, tiny_db, sif, query):
        plan = plan_sk(tiny_db, sif, query)
        loads_before = sif.lifetime_counters.objects_loaded
        with pytest.raises(RuntimeError, match="boom"):
            with ExecutionContext(tiny_db, plan) as ctx:
                _run_expansion(tiny_db, sif, query, ctx.counters)
                raise RuntimeError("boom")
        # The failed query's loads still land in the lifetime totals.
        assert ctx.counters.objects_loaded > 0
        assert sif.lifetime_counters.objects_loaded == (
            loads_before + ctx.counters.objects_loaded
        )


class TestStageSeconds:
    def test_knn_and_sk_report_the_same_stages(self, tiny_db, sif, query):
        """A kNN query (an SK query with a ``limit``) runs the SK
        query's expansion, so it reports the same stages (``expansion``,
        ``object_loading``, ``signature``)."""
        sk = tiny_db.sk_search(sif, query)
        knn = tiny_db.sk_search(sif, SKQuery.create(
            query.position, query.terms, query.delta_max, limit=3
        ))
        assert set(knn.stats.stage_seconds) == set(sk.stats.stage_seconds)
        assert set(sk.stats.stage_seconds) == {
            "expansion", "object_loading", "signature",
        }
        stages = knn.stats.stage_seconds
        assert 0.0 <= stages["object_loading"] <= stages["expansion"]
