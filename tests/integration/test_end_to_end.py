"""End-to-end integration: every index, both search modes, one dataset.

These tests exercise the full pipeline — dataset generation, CCAM
layout, index construction, INE expansion, diversified search — and
cross-check every access path against every other.
"""

import pytest

from repro.index.base import LoadCounters
from repro.workloads.queries import (
    WorkloadConfig,
    generate_diversified_queries,
    generate_sk_queries,
)


@pytest.fixture(scope="module")
def sk_queries(tiny_db):
    return generate_sk_queries(
        tiny_db, WorkloadConfig(num_queries=20, num_keywords=2, seed=123)
    )


class TestAllIndexesAgree:
    def test_sk_results_identical_across_indexes(
        self, tiny_db, tiny_indexes, sk_queries
    ):
        for q in sk_queries:
            results = {}
            for kind, index in tiny_indexes.items():
                r = tiny_db.sk_search(index, q)
                results[kind] = sorted(r.object_ids())
            baseline = results["ccam"]
            for kind, ids in results.items():
                assert ids == baseline, f"{kind} diverges on {sorted(q.terms)}"

    def test_distances_identical_across_indexes(
        self, tiny_db, tiny_indexes, sk_queries
    ):
        for q in sk_queries[:8]:
            per_kind = {}
            for kind, index in tiny_indexes.items():
                r = tiny_db.sk_search(index, q)
                per_kind[kind] = {
                    it.object.object_id: it.distance for it in r
                }
            baseline = per_kind["ccam"]
            for kind, dists in per_kind.items():
                for oid, d in dists.items():
                    assert d == pytest.approx(baseline[oid], abs=1e-6)


class TestIOOrdering:
    """The paper's headline orderings, on the shared tiny dataset."""

    def test_signature_reduces_io_vs_plain_inverted(
        self, tiny_db, tiny_indexes, sk_queries
    ):
        from repro.workloads.runner import run_sk_workload

        reports = {}
        for kind in ("if", "sif"):
            tiny_db.disk.clear_buffer()  # neither run inherits warm pages
            reports[kind] = run_sk_workload(
                tiny_db, tiny_indexes[kind], sk_queries
            )
        assert (
            reports["sif"].total_physical_reads
            <= reports["if"].total_physical_reads
        )

    def test_inverted_beats_full_scan_on_loads(
        self, tiny_db, tiny_indexes, sk_queries
    ):
        ccam = tiny_indexes["ccam"]
        inv = tiny_indexes["if"]
        ccam.lifetime_counters = LoadCounters()
        inv.lifetime_counters = LoadCounters()
        for q in sk_queries:
            tiny_db.sk_search(ccam, q)
            tiny_db.sk_search(inv, q)
        assert inv.lifetime_counters.objects_loaded <= ccam.lifetime_counters.objects_loaded


class TestDiversifiedPipeline:
    def test_seq_and_com_agree_across_indexes(self, tiny_db, tiny_indexes):
        queries = generate_diversified_queries(
            tiny_db, WorkloadConfig(num_queries=6, num_keywords=2, k=4, seed=321)
        )
        for q in queries:
            values = []
            for kind in ("if", "sif", "sif-p"):
                for method in ("seq", "com"):
                    r = tiny_db.diversified_search(
                        tiny_indexes[kind], q, method=method
                    )
                    values.append(r.objective_value)
            assert max(values) - min(values) < 1e-6

    def test_com_early_termination_happens_somewhere(self, tiny_db, tiny_indexes):
        # The tiny network has ~700-unit edges, so a wide search radius
        # is needed for the expansion to outlive the core pairs.
        queries = generate_diversified_queries(
            tiny_db,
            WorkloadConfig(num_queries=20, num_keywords=1, k=4, seed=7,
                           lambda_=0.9, delta_max=4000.0),
        )
        early = 0
        for q in queries:
            r = tiny_db.diversified_search(tiny_indexes["sif"], q, method="com")
            early += r.stats.expansion_terminated_early
        assert early >= 1
