"""Tests for EXPLAIN reports (repro.obs.explain) and Database.explain.

The two workload-level assertions here are the observable versions of
the paper's §3/§4 pruning claims: partitioned signatures (SIF-P) send
fewer candidate objects into verification than one signature per edge
(SIF), and a relevance-heavy diversified query (λ=1) lets the §4.3
bound terminate the network expansion early.
"""

import pytest

from repro.obs.explain import ExplainReport
from repro.obs.tracing import Tracer
from repro.workloads.queries import (
    WorkloadConfig,
    generate_diversified_queries,
    generate_sk_queries,
)
from tests.reference import event_count, spans_named


@pytest.fixture()
def sk_workload(tiny_db):
    config = WorkloadConfig(num_queries=40, num_keywords=2, seed=7)
    return generate_sk_queries(tiny_db, config)


class TestExplainReport:
    def test_requires_a_trace(self):
        with pytest.raises(ValueError):
            ExplainReport(None)

    def test_render_minimal_tree(self):
        tracer = Tracer()
        with tracer.span("query.sk", index="SIF", terms=["t1"],
                         delta_max=500.0) as root:
            tracer.add_span(
                "ine.round", 0.001, round=0, frontier=4, watermark=120.0,
                watermark_fraction=0.24, nodes_settled=8, objects_emitted=2,
            )
            tracer.add_span(
                "signature.filter", 0.0005, partition="SIF",
                edges_pruned=12, edges_probed=4, candidates_tested=9,
                false_positives=2, results=7,
            )
            root.set(results=7)
        text = ExplainReport(tracer.last_trace).render()
        assert "EXPLAIN" in text
        assert "INE round #0" in text
        assert "frontier 4" in text
        assert "signature filter [SIF]: dropped 12/16 (75%)" in text
        assert "9 candidate objects verified" in text
        assert "2/9 (22%) false positives" in text

    def test_sibling_runs_are_collapsed(self):
        tracer = Tracer()
        with tracer.span("query.diversified", method="COM"):
            for i in range(40):
                tracer.add_span("com.round", 0.0, candidate=i,
                                action="cp_not_full", theta_t=0.0, gamma=1.0)
        text = ExplainReport(tracer.last_trace).render()
        assert "more com.round spans" in text
        # Far fewer rendered lines than spans.
        assert text.count("COM round") < 10

    def test_event_summaries(self):
        tracer = Tracer()
        with tracer.span("query.sk"):
            for edge in range(5):
                tracer.event("signature.prune", edge=edge)
            tracer.event("pairwise.cache_hit")
        text = ExplainReport(tracer.last_trace).render()
        assert "5 × edges pruned by signature" in text
        assert "1 × pairwise distances answered from cache" in text


def signature_stats(report):
    """Attrs of the query's one ``signature.filter`` summary span."""
    (summary,) = spans_named(report.trace, "signature.filter")
    return summary.attrs


class TestDatabaseExplain:
    def test_sk_explain_has_pruning_nodes(self, tiny_db, tiny_indexes,
                                          sk_workload):
        report = tiny_db.explain(tiny_indexes["sif"], sk_workload[0])
        assert report.trace.name == "query.sk"
        assert spans_named(report.trace, "ine.round"), "expected INE rounds"
        stats = signature_stats(report)
        assert stats["partition"] == "SIF"
        assert stats["edges_pruned"] + stats["edges_probed"] > 0
        text = report.render()
        assert "INE round" in text
        assert "signature filter" in text

    def test_explain_restores_the_installed_tracer(self, tiny_db,
                                                   tiny_indexes,
                                                   sk_workload):
        assert tiny_db.tracing is False
        tiny_db.explain(tiny_indexes["sif"], sk_workload[0])
        assert tiny_db.tracing is False

    def test_diversified_explain_has_com_nodes(self, tiny_db, tiny_indexes):
        config = WorkloadConfig(
            num_queries=1, num_keywords=1, k=4, delta_max=4000.0, seed=11
        )
        query = generate_diversified_queries(tiny_db, config)[0]
        report = tiny_db.explain(tiny_indexes["sif"], query, method="com")
        assert report.trace.name == "query.diversified"
        assert spans_named(report.trace, "com.maintenance")
        assert spans_named(report.trace, "com.round")
        assert "COM" in report.render()
        # The C search's radius: the sources' reach plus δmax, not 2·δmax.
        limit = spans_named(report.trace, "pairwise.dijkstra")[0].attrs["limit"]
        assert f"nodes mapped within {limit:.4g} in" in report.render()

    def test_unpinned_explain_narrates_the_exit_that_ran(
        self, tiny_db, tiny_indexes
    ):
        """The plan says AUTO; the span tree says which exit answered."""
        config = WorkloadConfig(
            num_queries=1, num_keywords=1, k=4, delta_max=4000.0, seed=11
        )
        query = generate_diversified_queries(tiny_db, config)[0]
        report = tiny_db.explain(tiny_indexes["sif"], query, method=None)
        assert report.plan.label == "SIF/AUTO"
        assert report.result.method in ("SEQ", "COM")
        assert report.trace.attrs["method"] == report.result.method
        assert f"diversified query/{report.result.method} [" in (
            report.render()
        )

    def test_result_is_returned(self, tiny_db, tiny_indexes, sk_workload):
        report = tiny_db.explain(tiny_indexes["sif"], sk_workload[0])
        assert report.result is not None
        assert report.trace.attrs["results"] == len(report.result)


class TestPruningClaims:
    def test_sif_p_verifies_fewer_candidates_than_sif(
        self, tiny_db, tiny_indexes, sk_workload
    ):
        """§3.3: edge partitioning cuts signature false positives, so
        SIF-P's EXPLAIN shows fewer verification candidates than SIF
        over the same workload."""
        totals = {}
        for kind in ("sif", "sif-p"):
            index = tiny_indexes[kind]
            total = 0
            for query in sk_workload:
                stats = signature_stats(tiny_db.explain(index, query))
                assert stats["partition"] == index.name
                total += stats["candidates_tested"]
            totals[kind] = total
        assert totals["sif-p"] < totals["sif"]

    def test_lambda_one_records_early_termination(self, tiny_db,
                                                  tiny_indexes):
        """§4.3: with λ=1 the unvisited-pair bound decays as the
        frontier grows, so expansions terminate before exhausting
        δmax — and the trace says so."""
        config = WorkloadConfig(
            num_queries=10, num_keywords=1, k=4, lambda_=1.0,
            delta_max=4000.0, seed=11,
        )
        queries = generate_diversified_queries(tiny_db, config)
        early = [
            report
            for report in (
                tiny_db.explain(tiny_indexes["sif"], q, method="com")
                for q in queries
            )
            if report.trace.attrs["terminated_early"]
        ]
        assert early, "no query terminated early under lambda=1"
        report = early[0]
        # The root span, the COM summary and the termination event all
        # agree; the rendered report narrates the decision.
        assert report.trace.attrs["terminated_early"] is True
        assert event_count(report.trace, "com.early_termination") == 1
        (maintenance,) = spans_named(report.trace, "com.maintenance")
        assert maintenance.attrs["terminated_early"] is True
        rounds = spans_named(report.trace, "com.round")
        assert rounds[-1].attrs["action"] == "terminate"
        assert "TERMINATE expansion" in report.render()

    def test_no_pruning_ablation_never_terminates(self, tiny_db,
                                                  tiny_indexes):
        config = WorkloadConfig(
            num_queries=3, num_keywords=1, k=4, lambda_=1.0,
            delta_max=4000.0, seed=11,
        )
        for query in generate_diversified_queries(tiny_db, config):
            report = tiny_db.explain(
                tiny_indexes["sif"], query, method="com",
                enable_pruning=False,
            )
            assert not report.trace.attrs["terminated_early"]
