"""Tests for SEQ and COM diversified search (paper §4, Algorithm 6)."""

import dataclasses

import pytest

from repro.errors import QueryError
from repro.workloads.queries import WorkloadConfig, generate_diversified_queries


@pytest.fixture(scope="module")
def sif(tiny_db):
    return tiny_db.build_index("sif", file_prefix="div-sif")


@pytest.fixture(scope="module")
def queries(tiny_db):
    return generate_diversified_queries(
        tiny_db, WorkloadConfig(num_queries=15, num_keywords=2, k=6, seed=55)
    )


class TestEquivalence:
    def test_com_matches_seq_objective(self, tiny_db, sif, queries):
        """COM's pruning must not change the answer quality (the paper
        argues exactness given distinct distances; ties may swap equal-
        value members, so we compare objective values)."""
        for q in queries:
            seq = tiny_db.diversified_search(sif, q, method="seq")
            com = tiny_db.diversified_search(sif, q, method="com")
            assert com.objective_value == pytest.approx(
                seq.objective_value, rel=1e-6
            ), f"terms={sorted(q.terms)}"

    def test_result_sizes(self, tiny_db, sif, queries):
        for q in queries:
            seq = tiny_db.diversified_search(sif, q, method="seq")
            com = tiny_db.diversified_search(sif, q, method="com")
            assert len(seq) == len(com)
            assert len(seq) <= q.k

    def test_k_beyond_the_pool_returns_the_pool(self, tiny_db, sif, queries):
        """k > |R|: every exit answers with the whole pool R, in the same
        order and with the bit-equal objective value."""
        sizes = set()
        for q in queries:
            q = dataclasses.replace(q, k=50)
            pool = tiny_db.sk_search(sif, q.sk_query).object_ids()
            seq, com, auto = (
                tiny_db.diversified_search(sif, q, method=method)
                for method in ("seq", "com", None)
            )
            assert sorted(seq.object_ids()) == sorted(pool)
            for other in (com, auto):
                assert other.object_ids() == seq.object_ids()
                assert other.objective_value == seq.objective_value
            sizes.add(len(pool))
        assert {0, 1, 2}.issubset(sizes) and max(sizes) > 2

    def test_results_satisfy_constraints(self, tiny_db, sif, queries):
        for q in queries:
            for result in (
                tiny_db.diversified_search(sif, q, method="seq"),
                tiny_db.diversified_search(sif, q, method="com"),
            ):
                for item in result:
                    assert item.object.contains_all(q.terms)
                    assert item.distance <= q.delta_max + 1e-9

    def test_no_duplicate_objects(self, tiny_db, sif, queries):
        for q in queries:
            com = tiny_db.diversified_search(sif, q, method="com")
            ids = com.object_ids()
            assert len(ids) == len(set(ids))


class TestPruningBehaviour:
    def test_com_processes_no_more_candidates_than_seq(
        self, tiny_db, sif, queries
    ):
        for q in queries:
            seq = tiny_db.diversified_search(sif, q, method="seq")
            com = tiny_db.diversified_search(sif, q, method="com")
            assert com.stats.candidates <= seq.stats.candidates

    def test_pruning_ablation_same_objective(self, tiny_db, sif, queries):
        """Ablation A2: disabling the diversity pruning changes cost,
        never the answer."""
        for q in queries[:6]:
            on = tiny_db.diversified_search(
                sif, q, method="com", enable_pruning=True
            )
            off = tiny_db.diversified_search(
                sif, q, method="com", enable_pruning=False
            )
            assert on.objective_value == pytest.approx(
                off.objective_value, rel=1e-9
            )
            assert on.stats.candidates <= off.stats.candidates

    def test_methods_validated(self, tiny_db, sif, queries):
        with pytest.raises(QueryError):
            tiny_db.diversified_search(sif, queries[0], method="magic")

    def test_stats_populated(self, tiny_db, sif, queries):
        com = tiny_db.diversified_search(sif, queries[0], method="com")
        assert com.stats.io is not None
        assert com.stats.nodes_accessed > 0
        assert com.method == "COM"
        seq = tiny_db.diversified_search(sif, queries[0], method="seq")
        assert seq.method == "SEQ"


class TestDiversityValue:
    def test_diversified_beats_topk_on_diversity(self, tiny_db, sif):
        """With λ < 1 the diversified result should (weakly) beat the
        plain distance top-k under the objective f."""
        from repro.core.objective import DiversificationObjective
        from repro.core.ine import INEExpansion
        from repro.network.distance import PairwiseDistanceComputer

        queries = generate_diversified_queries(
            tiny_db,
            WorkloadConfig(num_queries=10, num_keywords=1, k=4, lambda_=0.3, seed=77),
        )
        improved = checked = 0
        for q in queries:
            exp = INEExpansion(
                tiny_db.ccam, tiny_db.network, sif, q.position, q.terms, q.delta_max
            )
            candidates = exp.run_to_completion()
            if len(candidates) <= q.k:
                continue
            checked += 1
            topk = candidates[: q.k]
            objective = DiversificationObjective(q.lambda_, q.delta_max)
            comp = PairwiseDistanceComputer(
                tiny_db.network, tiny_db.network, cutoff=2.1 * q.delta_max
            )

            def f(items):
                dists = [it.distance for it in items]
                return objective.objective(
                    dists,
                    lambda i, j: comp.distance(
                        items[i].object.position, items[j].object.position
                    ),
                )

            result = tiny_db.diversified_search(sif, q, method="com")
            assert f(list(result)) >= f(topk) - 1e-9
            if f(list(result)) > f(topk) + 1e-9:
                improved += 1
        if checked:
            assert improved >= 1  # diversification actually does something
