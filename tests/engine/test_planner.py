"""Planner behaviour: cost hints, algorithm choice, plan rendering."""

import dataclasses

import numpy as np
import pytest

from repro import Database, NetworkPosition
from repro.core.diversified_search import SWITCH_FACTOR
from repro.core.queries import DiversifiedSKQuery, SKQuery
from repro.datasets.catalog import build_dataset
from repro.datasets.synthetic import random_planar_network
from repro.engine import QueryPlan, plan_diversified, plan_sk
from repro.engine.plan import CostHints
from repro.errors import GraphError, QueryError
from repro.workloads.queries import (
    WorkloadConfig,
    generate_diversified_queries,
    generate_sk_queries,
)
from tests.conftest import TINY_PROFILE, recount_catalogue


@pytest.fixture(scope="module")
def sif(tiny_db):
    return tiny_db.build_index("sif", file_prefix="planner-sif")


@pytest.fixture(scope="module")
def sk_query(tiny_db):
    return generate_sk_queries(
        tiny_db, WorkloadConfig(num_queries=1, num_keywords=2, seed=7)
    )[0]


@pytest.fixture(scope="module")
def div_query(tiny_db):
    return generate_diversified_queries(
        tiny_db, WorkloadConfig(num_queries=1, num_keywords=2, k=4, seed=7)
    )[0]


@pytest.fixture()
def live():
    """A private copy of the tiny dataset that a test may update."""
    db = build_dataset(TINY_PROFILE.scaled(0.2))
    return db, db.build_index("sif", file_prefix="planner-live-sif")


class _NoScan(dict):
    """An object map that answers lookups and ``len`` but not iteration."""

    def _refuse(self, *args):
        raise AssertionError("planning iterated the object store")

    __iter__ = keys = values = items = _refuse


def recount_hints(db, terms) -> CostHints:
    """The cost hints as a full pass over objects and edges gives them."""
    frequencies, vocabulary, _ = recount_catalogue(db.store)
    num_objects = sum(1 for _ in db.store)
    tf = tuple(sorted(
        ((term, frequencies.get(term, 0)) for term in terms),
        key=lambda pair: (pair[1], pair[0]),
    ))
    estimated = float(num_objects)
    for _term, df in tf:
        estimated *= (df / num_objects) if num_objects else 0.0
    return CostHints(
        num_objects=num_objects,
        num_edges=sum(1 for _ in db.network.edges()),
        vocabulary_size=len(vocabulary),
        term_frequencies=tf,
        estimated_matches=estimated,
        selectivity=(estimated / num_objects) if num_objects else 0.0,
        distance_backend=db.distance_backend,
        data_version=db.data_version,
        recent_updates=len(db.update_journal),
    )


def _queries_over(db):
    """One SK, one kNN (a limited SK) and one diversified query over
    ``db``'s data."""
    config = WorkloadConfig(num_queries=1, num_keywords=2, k=4, seed=7)
    sk = generate_sk_queries(db, config)[0]
    div = generate_diversified_queries(db, config)[0]
    knn = SKQuery.create(div.position, div.terms, div.delta_max, limit=3)
    return sk, knn, div


def _plan_all(db, index, queries):
    sk, knn, div = queries
    return [
        plan_sk(db, index, sk),
        plan_sk(db, index, knn),
        plan_diversified(db, index, div, method=None),
    ]


def _auto_and_seq(matches: int, k: int, seed: int = 5, lam: float = 0.6):
    """An un-pinned and a pinned-SEQ run of one query on a random road
    network holding exactly ``matches`` objects with the query's term,
    every one in range (δmax is the network's total weight), among as
    many that lack it."""
    rng = np.random.default_rng(seed)
    network = random_planar_network(30, seed=seed)
    db = Database(network, buffer_pages=64)
    edges = list(network.edges())
    for i in range(2 * matches):
        edge = edges[int(rng.integers(len(edges)))]
        db.add_object(
            NetworkPosition(edge.edge_id, float(rng.uniform(0, edge.weight))),
            ["target" if i < matches else "other"],
        )
    db.freeze()
    index = db.build_index("sif", file_prefix=f"switch-{matches}")
    query = DiversifiedSKQuery.create(
        NetworkPosition(edges[0].edge_id, 0.0), ["target"],
        delta_max=sum(e.weight for e in edges), k=k, lambda_=lam,
    )
    auto = db.diversified_search(index, query, method=None)
    seq = db.diversified_search(index, query, method="seq")
    assert seq.stats.candidates == matches
    return auto, seq


class TestCostHints:
    def test_hints_derive_from_catalogue(self, tiny_db, sif, sk_query):
        plan = plan_sk(tiny_db, sif, sk_query)
        h = plan.hints
        assert h.num_objects == len(tiny_db.store)
        assert h.num_edges == tiny_db.network.num_edges
        assert {t for t, _ in h.term_frequencies} == set(sk_query.terms)
        freqs = [df for _, df in h.term_frequencies]
        assert freqs == sorted(freqs)  # rarest first
        # Independence estimate never exceeds the rarest term's df.
        assert h.estimated_matches <= min(freqs) + 1e-9
        assert 0.0 <= h.selectivity <= 1.0

    def test_planning_is_pure_metadata(self, live, monkeypatch):
        """No plan executes a query or reads a single object — before
        an update, after an insert and after a delete."""
        db, sif = live
        queries = _queries_over(db)
        executed = db.metrics.counters().get("query.count", 0)

        def plan_without_touching_objects():
            with monkeypatch.context() as patch:
                patch.setattr(db.store, "_objects", _NoScan(db.store._objects))
                plans = _plan_all(db, sif, queries)
            assert all(p.hints.num_objects == len(db.store) for p in plans)

        plan_without_touching_objects()
        position = next(iter(db.store)).position
        inserted = db.insert_object(position, queries[0].terms, indexes=(sif,))
        plan_without_touching_objects()
        db.delete_object(inserted.object_id, indexes=(sif,))
        plan_without_touching_objects()
        assert db.metrics.counters().get("query.count", 0) == executed

    def test_hints_equal_a_brute_force_recount(self, tiny_db, sif, sk_query):
        plan = plan_sk(tiny_db, sif, sk_query)
        assert plan.hints == recount_hints(tiny_db, sk_query.terms)
        # Unknown terms count 0 and, their dfs being equal, order by name.
        absent = DiversifiedSKQuery.create(
            sk_query.position, ("zz-b", "zz-a", *sk_query.terms),
            delta_max=sk_query.delta_max, k=4,
        )
        hints = plan_diversified(tiny_db, sif, absent, method=None).hints
        assert hints == recount_hints(tiny_db, absent.terms)
        assert hints.term_frequencies[:2] == (("zz-a", 0), ("zz-b", 0))

    def test_hints_follow_updates(self, live):
        db, sif = live
        queries = _queries_over(db)

        def check():
            for plan in _plan_all(db, sif, queries):
                assert plan.hints == recount_hints(db, plan.query.terms)

        check()
        position = next(iter(db.store)).position
        rare = db.insert_object(
            position, {"zz-only-here", *queries[0].terms}, indexes=(sif,)
        )
        check()
        edge = db.network.edge(position.edge_id)
        db.update_edge_weight(edge.edge_id, edge.weight * 1.5, indexes=(sif,))
        check()
        vocabulary = plan_sk(db, sif, queries[0]).hints.vocabulary_size
        db.delete_object(rare.object_id, indexes=(sif,))
        check()
        after = plan_sk(db, sif, queries[0]).hints
        assert after.vocabulary_size == vocabulary - 1
        # Remove every holder of the query's rarest term: its df reads 0
        # and the conjunctive estimate collapses with it.
        term = after.term_frequencies[0][0]
        for obj in [o for o in db.store if term in o.keywords]:
            db.delete_object(obj.object_id, indexes=(sif,))
        check()
        emptied = plan_sk(db, sif, queries[0]).hints
        assert emptied.term_frequencies[0] == (term, 0)
        assert emptied.estimated_matches == 0.0
        assert emptied.selectivity == 0.0

    def test_empty_store_estimates_zero(self, grid_network9):
        db = Database(grid_network9, buffer_pages=16)
        db.freeze()
        sif = db.build_index("sif")
        query = SKQuery.create(NetworkPosition(0, 0.0), ["pizza"], 500.0)
        hints = plan_sk(db, sif, query).hints
        assert hints == recount_hints(db, query.terms)
        assert (hints.num_objects, hints.vocabulary_size) == (0, 0)
        assert hints.estimated_matches == 0.0
        assert hints.selectivity == 0.0


class TestPlanShapes:
    def test_sk_plan(self, tiny_db, sif, sk_query):
        plan = plan_sk(tiny_db, sif, sk_query)
        assert plan.kind == "sk"
        assert plan.algorithm == "ine"
        assert plan.label == f"{sif.name}/INE"
        text = plan.describe()
        assert "QUERY PLAN" in text and plan.label in text
        assert "cost hints" in text

    def test_knn_plan(self, tiny_db, sif, div_query):
        """A kNN query is an SK query with a limit: the SK plan, which
        shows the limit."""
        query = SKQuery.create(
            div_query.position, div_query.terms, 1e9, limit=3
        )
        plan = plan_sk(tiny_db, sif, query)
        assert (plan.kind, plan.algorithm) == ("sk", "ine")
        assert plan.label == f"{sif.name}/INE"
        assert "limit=3" in plan.describe()
        unlimited = plan_sk(tiny_db, sif, dataclasses.replace(query, limit=None))
        assert "limit" not in unlimited.describe()

    def test_database_plan_dispatch(self, tiny_db, sif, sk_query, div_query):
        """``Database.explain`` plans by the query's type."""
        assert tiny_db.explain(sif, sk_query).plan.kind == "sk"
        assert tiny_db.explain(sif, div_query).plan.kind == "diversified"
        knn = SKQuery.create(div_query.position, div_query.terms, 1e9, limit=2)
        report = tiny_db.explain(sif, knn)
        assert report.plan.kind == "sk" and len(report.result) <= 2

    def test_invalid_algorithm_rejected(self, sif, sk_query):
        with pytest.raises(QueryError):
            QueryPlan(kind="sk", query=sk_query, index=sif, algorithm="com")
        with pytest.raises(QueryError):
            QueryPlan(kind="nope", query=sk_query, index=sif, algorithm="ine")


class TestDiversifiedChoice:
    def test_forced_method_wins(self, tiny_db, sif, div_query):
        for method in ("seq", "com", "COM"):
            plan = plan_diversified(tiny_db, sif, div_query, method=method)
            assert plan.algorithm == method.lower()
            assert "forced" in plan.rationale

    def test_bad_method_rejected(self, tiny_db, sif, div_query):
        with pytest.raises(QueryError):
            plan_diversified(tiny_db, sif, div_query, method="greedy")

    def test_auto_exits_seq_below_2k(self):
        k = 3
        auto, seq = _auto_and_seq(SWITCH_FACTOR * k - 1, k)
        assert auto.method == "SEQ"
        assert auto.stats.candidates == seq.stats.candidates
        assert auto.objective_value == seq.objective_value

    @pytest.mark.parametrize("extra", [0, 1], ids=["2k", "2k+1"])
    def test_auto_exits_com_from_2k(self, extra):
        k = 3
        auto, seq = _auto_and_seq(SWITCH_FACTOR * k + extra, k)
        assert auto.method == "COM"
        assert auto.stats.candidates >= SWITCH_FACTOR * k
        assert auto.objective_value == pytest.approx(
            seq.objective_value, rel=1e-9
        )

    @pytest.mark.parametrize("lam", [0.0, 0.3, 0.5])
    def test_unpinned_plans_seq_at_or_below_half(
        self, tiny_db, sif, div_query, lam
    ):
        """At λ ≤ ½ COM cannot stop early, so an un-pinned query runs
        SEQ and returns what a SEQ pin returns, even on a pool that
        would fill the 2·k buffer."""
        query = dataclasses.replace(div_query, lambda_=lam)
        plan = plan_diversified(tiny_db, sif, query)
        assert plan.algorithm == "seq"
        assert f"λ={lam:g} ≤ ½" in plan.rationale
        k = 3
        auto, seq = _auto_and_seq(SWITCH_FACTOR * k + 4, k, lam=lam)
        assert auto.method == seq.method == "SEQ"
        assert [it.object.object_id for it in auto.items] == [
            it.object.object_id for it in seq.items
        ]
        assert auto.objective_value == seq.objective_value
        assert auto.stats.candidates == seq.stats.candidates

    def test_unpinned_plans_auto_above_half(self, tiny_db, sif, div_query):
        for lam in (0.5 + 1e-9, 0.8):
            query = dataclasses.replace(div_query, lambda_=lam)
            assert plan_diversified(tiny_db, sif, query).algorithm == "auto"

    def test_auto_plan_names_its_rule_not_the_estimate(
        self, tiny_db, sif, div_query
    ):
        plan = plan_diversified(tiny_db, sif, div_query)
        assert plan.algorithm == "auto"
        assert plan.label == f"{sif.name}/AUTO"
        assert f"{SWITCH_FACTOR * div_query.k} ({SWITCH_FACTOR}·k)" in (
            plan.rationale
        )
        assert "est." not in plan.rationale

    def test_plan_carries_execution_knobs(self, tiny_db, sif, div_query):
        plan = plan_diversified(
            tiny_db, sif, div_query, method="com", enable_pruning=False,
        )
        assert plan.enable_pruning is False


class TestQueryPositionOnItsEdge:
    """A query position off its edge is a typed error, not an answer."""

    def test_nan_offset_rejected(self):
        with pytest.raises(GraphError):
            NetworkPosition(0, float("nan"))

    def test_offset_beyond_the_edge_rejected_by_every_planner(
        self, tiny_db, sif, div_query
    ):
        edge = tiny_db.network.edge(div_query.position.edge_id)
        past = NetworkPosition(edge.edge_id, 3 * edge.weight)
        plans = (
            (plan_sk, SKQuery(past, div_query.terms, div_query.delta_max)),
            (plan_sk, SKQuery.create(past, div_query.terms, 1e9, limit=3)),
            (plan_diversified, DiversifiedSKQuery.create(
                past, div_query.terms, div_query.delta_max, k=4,
            )),
        )
        for planner, query in plans:
            with pytest.raises(QueryError, match="beyond edge"):
                planner(tiny_db, sif, query)

    def test_offset_at_the_far_end_is_on_the_edge(
        self, tiny_db, sif, div_query
    ):
        edge = tiny_db.network.edge(div_query.position.edge_id)
        end = NetworkPosition(edge.edge_id, edge.weight)
        query = SKQuery(end, div_query.terms, div_query.delta_max)
        assert plan_sk(tiny_db, sif, query).kind == "sk"
