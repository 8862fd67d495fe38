"""The two distance backends, csgraph and dijkstra, through the engine,
checked against the hub-label oracle.

The acceptance bar is *identical answers* — same object ids, same
objective values — on every SK/diversified scenario, with the backend
visible in plans, stats, metrics records, slow-query logs and
Prometheus exports.  Hub labels are no backend a user selects: the
tests hand the oracle to the engine's computers directly
(:func:`tests.conftest.hub_label_distances`).  The Contraction
Hierarchy is only the ordering the labels are built from: no metric
names either.
"""

import math

import pytest

from repro.core.database import Database
from repro.core.queries import DiversifiedSKQuery, SKQuery
from repro.datasets.synthetic import random_planar_network
from repro.engine import plan_diversified
from repro.errors import QueryError
from repro.network.distance import (
    DISTANCE_BACKENDS,
    PAIRWISE_CUTOFF_FACTOR,
)
from repro.network.graph import NetworkPosition
from repro.obs.export import database_gauges, prometheus_text
from repro.obs.slowlog import SlowQueryThreshold
from repro.workloads.queries import WorkloadConfig, generate_diversified_queries
from tests.conftest import hub_label_distances
from tests.reference import InMemorySink


@pytest.fixture()
def restore_backend(tiny_db):
    """Leave the session-scoped database on the default backend."""
    yield tiny_db
    tiny_db.use_distance_backend("csgraph")


def _run_workload(db, index, queries, method):
    out = []
    for query in queries:
        result = db.diversified_search(index, query, method=method)
        out.append(
            (result.object_ids(), round(result.objective_value, 9))
        )
    return out


class TestBackendSelection:
    def test_unknown_backend_rejected(self, restore_backend):
        # ``ch`` and ``hub`` left the query surface: the labels are an
        # oracle, and the Contraction Hierarchy their ordering.
        for name in ("astar", "ch", "hub"):
            with pytest.raises(QueryError):
                restore_backend.use_distance_backend(name)

    def test_constructor_selects_backend(self):
        # A new database pairs on ``csgraph``; ``use_distance_backend``
        # is the one way to another backend.
        db = Database(random_planar_network(30, seed=2))
        assert db.distance_backend == "csgraph"
        db.use_distance_backend("dijkstra")
        assert db.distance_backend == "dijkstra"
        computer = db.pairwise_computer(100.0)
        assert computer.backend is None
        assert computer.backend_name == "dijkstra"

    def test_default_is_csgraph(self, tiny_db):
        assert tiny_db.distance_backend == "csgraph"
        fresh = Database(random_planar_network(30, seed=2))
        assert fresh.distance_backend == "csgraph"
        # No oracle: the computer traverses the in-memory network, and
        # its cutoff is the one named constant.
        computer = fresh.pairwise_computer(100.0)
        assert computer.backend is None
        assert computer.backend_name == "csgraph"
        assert computer.cutoff == 2.0 * 100.0 * 1.001
        assert computer.cutoff == PAIRWISE_CUTOFF_FACTOR * 100.0
        fresh.use_distance_backend("dijkstra")
        assert fresh.pairwise_computer(100.0).backend_name == (
            "dijkstra"
        )

    def test_oracle_built_once_and_unrecorded(self):
        """The hub oracle is built once, on the database's Contraction
        Hierarchy, and neither leaves a record, a counter nor a gauge
        — nor does it change which computer a query gets."""
        db = Database(random_planar_network(30, seed=2))
        sink = InMemorySink()
        db.metrics.add_sink(sink)
        oracle = db.hub_oracle()
        assert db.hub_oracle() is oracle
        assert db.ch_oracle() is oracle.ch
        assert db.pairwise_computer(100.0).backend is None
        assert sink.records == []
        assert db.metrics.counters() == {}
        assert not [
            name for name in database_gauges(db)
            if name.startswith(("hub", "ch."))
        ]

    def test_hub_backend_selected_and_recorded(
        self, restore_backend, tiny_indexes
    ):
        """Handed to the engine's computers, the oracle answers every
        pair — no Dijkstra runs — and each query's stats and
        ``query.backend.*`` counter name it."""
        db = restore_backend
        config = WorkloadConfig(num_queries=4, num_keywords=2, k=5, seed=71)
        queries = generate_diversified_queries(db, config)
        before = db.metrics.counters().get("query.backend.hub", 0)
        with hub_label_distances(db):
            oracle = db.hub_oracle()
            assert db.pairwise_computer(100.0).backend is oracle
            stats = [
                db.diversified_search(tiny_indexes["sif"], q, method="seq").stats
                for q in queries
            ]
        # The labels reuse the database's CH (same ordering, no second
        # preprocessing pass).
        assert oracle.ch is db.ch_oracle()
        assert [s.distance_backend for s in stats] == ["hub"] * len(queries)
        assert all(s.pairwise_dijkstras == 0 for s in stats)
        after = db.metrics.counters()["query.backend.hub"]
        assert after - before == len(queries)
        # Outside the block the engine is back on its own backend.
        assert db.pairwise_computer(100.0).backend is None


class TestAnswerEquivalence:
    def test_seq_and_com_identical_across_backends(
        self, restore_backend, tiny_indexes
    ):
        db = restore_backend
        index = tiny_indexes["sif"]
        config = WorkloadConfig(
            num_queries=8, num_keywords=2, k=5, seed=71
        )
        queries = generate_diversified_queries(db, config)
        before = db.metrics.snapshot()["counters"]
        db.use_distance_backend("dijkstra")
        want = {
            method: _run_workload(db, index, queries, method)
            for method in ("seq", "com")
        }
        db.use_distance_backend("csgraph")
        with hub_label_distances(db):
            got = {
                method: _run_workload(db, index, queries, method)
                for method in ("seq", "com")
            }
        assert got == want
        # The session-shared registry may carry earlier tests' queries:
        # compare the per-backend counter *deltas* of this workload.
        # A query answered by the oracle files under its name.
        after = db.metrics.snapshot()["counters"]

        def delta(name):
            return after.get(name, 0) - before.get(name, 0)

        assert delta("query.backend.hub") == 2 * len(queries)
        assert delta("query.backend.hub") == delta("query.backend.dijkstra")

    def test_all_three_backends_agree(self, restore_backend, tiny_indexes):
        """{csgraph, dijkstra, the hub-label oracle} × {seq, com}
        returns byte-identical object ids and objective values (rounded
        to 9 decimals, the repo's equivalence contract)."""
        db = restore_backend
        index = tiny_indexes["sif"]
        config = WorkloadConfig(num_queries=6, num_keywords=2, k=5, seed=83)
        queries = generate_diversified_queries(db, config)
        results = {}
        for backend in DISTANCE_BACKENDS:
            db.use_distance_backend(backend)
            for method in ("seq", "com"):
                results[(backend, method)] = _run_workload(
                    db, index, queries, method
                )
        with hub_label_distances(db):
            for method in ("seq", "com"):
                results[("hub", method)] = _run_workload(
                    db, index, queries, method
                )
        for (backend, method), got in results.items():
            assert got == results[("dijkstra", method)], (backend, method)

    def test_stats_carry_backend_counters(self, restore_backend, tiny_indexes):
        """Under ``dijkstra`` every pair comes from a bounded Dijkstra:
        the stats name the backend and the Dijkstra counter moves."""
        db = restore_backend
        db.use_distance_backend("dijkstra")
        index = tiny_indexes["sif"]
        config = WorkloadConfig(num_queries=4, num_keywords=2, k=5, seed=71)
        stats = [
            db.diversified_search(index, q, method="seq").stats
            for q in generate_diversified_queries(db, config)
        ]
        assert all(s.distance_backend == "dijkstra" for s in stats)
        assert any(s.pairwise_dijkstras > 0 for s in stats)

    def test_plan_records_backend(self, restore_backend, tiny_indexes):
        db = restore_backend
        index = tiny_indexes["sif"]
        query = DiversifiedSKQuery.create(
            db.network.node_position(0), ["a"], delta_max=1000.0, k=3
        )
        db.use_distance_backend("csgraph")
        plan = plan_diversified(db, index, query, method="com")
        assert plan.hints.distance_backend == "csgraph"
        assert "distance backend: csgraph" in plan.describe()
        db.use_distance_backend("dijkstra")
        plan = plan_diversified(db, index, query, method="com")
        assert plan.hints.distance_backend == "dijkstra"
        assert "distance backend: dijkstra" in plan.describe()


class TestObservability:
    @pytest.mark.parametrize("backend", DISTANCE_BACKENDS)
    def test_sk_and_knn_report_the_backend_they_ran_under(
        self, restore_backend, tiny_indexes, backend
    ):
        """A boolean SK or kNN query computes no pairwise distance, but
        its stats, its ``query.backend.*`` counter and its metrics
        record name the database's backend — not the ``QueryStats``
        default, which used to file every one under ``dijkstra``."""
        db = restore_backend
        db.use_distance_backend(backend)
        index = tiny_indexes["sif"]
        position = db.network.node_position(3)
        term = sorted(db.store.keyword_frequencies().keys())[0]
        sink = InMemorySink()
        db.metrics.add_sink(sink)
        before = db.metrics.snapshot()["counters"]
        try:
            results = [
                db.sk_search(index, SKQuery.create(position, [term], 2000.0)),
                db.sk_search(
                    index, SKQuery.create(position, [term], 1e9, limit=3)
                ),
            ]
        finally:
            db.metrics.remove_sink(sink)
        after = db.metrics.snapshot()["counters"]
        assert [r.stats.distance_backend for r in results] == [backend] * 2
        assert [
            r["stats"]["distance_backend"] for r in sink.of_type("query")
        ] == [backend] * 2
        for name in DISTANCE_BACKENDS:
            counter = f"query.backend.{name}"
            assert after.get(counter, 0) - before.get(counter, 0) == (
                2 if name == backend else 0
            )

    def test_slowlog_records_backend(self, restore_backend, tiny_indexes):
        db = restore_backend
        db.use_distance_backend("dijkstra")
        log = db.enable_slow_query_log(latency_seconds=0.0)
        try:
            index = tiny_indexes["sif"]
            config = WorkloadConfig(
                num_queries=2, num_keywords=2, k=4, seed=71
            )
            for query in generate_diversified_queries(db, config):
                db.diversified_search(index, query, method="com")
            records = log.records()
            assert records
            for record in records:
                assert record["stats"]["distance_backend"] == "dijkstra"
        finally:
            db.disable_slow_query_log()

    def test_prometheus_gauges_carry_backend(self, restore_backend):
        """A database whose oracles are built exports its backend's
        one-hot gauge and no ``hub`` or ``ch`` one."""
        db = restore_backend
        db.use_distance_backend("dijkstra")
        db.hub_oracle()
        assert db.ch_oracle() is not None
        gauges = database_gauges(db)
        assert gauges["distance_backend.dijkstra"] == 1.0
        assert gauges["distance_backend.csgraph"] == 0.0
        assert not [
            name for name in gauges if name.startswith(("hub", "ch."))
        ]
        text = prometheus_text(db.metrics, gauges=gauges)
        assert "repro_distance_backend_dijkstra 1.0" in text
        assert "repro_ch_" not in text and "repro_hub_" not in text
        assert "distance_backend_ch" not in text
        assert "distance_backend_hub" not in text

    def test_dijkstra_run_exports_zero_ch_gauge(self, restore_backend):
        restore_backend.use_distance_backend("dijkstra")
        gauges = database_gauges(restore_backend)
        assert gauges["distance_backend.dijkstra"] == 1.0
        assert "distance_backend.ch" not in gauges
        # One gauge per backend the program knows, exactly one hot.
        assert sum(
            gauges[f"distance_backend.{name}"] for name in DISTANCE_BACKENDS
        ) == 1.0

    def test_explain_renders_backend(self, restore_backend, tiny_indexes):
        db = restore_backend
        db.use_distance_backend("dijkstra")
        query = DiversifiedSKQuery.create(
            db.network.node_position(3),
            ["a"],
            delta_max=2000.0,
            k=3,
        )
        report = db.explain(
            tiny_indexes["sif"], query, method="com",
            slow_threshold=SlowQueryThreshold(latency_seconds=math.inf),
        )
        rendered = report.render()
        assert "distance backend: dijkstra" in rendered


class TestHubUpdateInteraction:
    """Reweight/insert/delete never leave the hub-label oracle serving
    stale distances — it drops at commit and rebuilds lazily."""

    def _fresh_db(self, seed=41):
        network = random_planar_network(60, seed=seed)
        db = Database(network, buffer_pages=64)
        import numpy as np

        rng = np.random.default_rng(seed)
        edges = list(network.edges())
        vocab = ["cafe", "fuel", "park"]
        for _ in range(90):
            e = edges[int(rng.integers(len(edges)))]
            db.add_object(
                NetworkPosition(e.edge_id, float(rng.uniform(0, e.weight))),
                [vocab[int(rng.integers(len(vocab)))]],
            )
        db.freeze()
        index = db.build_index("sif", file_prefix=f"hub-upd-{seed}")
        query = DiversifiedSKQuery.create(
            NetworkPosition(edges[3].edge_id, edges[3].weight / 2),
            ["cafe"], delta_max=10_000.0, k=4, lambda_=0.7,
        )
        return db, index, query, edges

    def _assert_matches_dijkstra(self, db, index, query):
        with hub_label_distances(db):
            got = db.diversified_search(index, query, method="seq")
        db.use_distance_backend("dijkstra")
        want = db.diversified_search(index, query, method="seq")
        db.use_distance_backend("csgraph")
        assert got.object_ids() == want.object_ids()
        assert got.objective_value == pytest.approx(want.objective_value)

    def test_reweight_triggers_lazy_rebuild(self):
        db, index, query, edges = self._fresh_db()
        with hub_label_distances(db):
            db.diversified_search(index, query, method="seq")
        oracle = db._hub_oracle
        assert oracle is not None
        db.update_edge_weight(edges[0].edge_id, edges[0].weight * 2.5)
        assert db._hub_oracle is None
        self._assert_matches_dijkstra(db, index, query)
        assert db._hub_oracle is not None
        assert db._hub_oracle is not oracle

    def test_insert_and_delete_stay_correct(self):
        db, index, query, edges = self._fresh_db(seed=43)
        db.hub_oracle()
        obj = db.insert_object(
            NetworkPosition(query.position.edge_id, 1.0),
            ["cafe"], indexes=(index,),
        )
        # Object updates leave network distances untouched: the oracle
        # survives, and the new object is answerable through it.
        assert db._hub_oracle is not None
        self._assert_matches_dijkstra(db, index, query)
        db.delete_object(obj.object_id, indexes=(index,))
        assert db._hub_oracle is not None
        self._assert_matches_dijkstra(db, index, query)

    def test_epoch_sequence_of_mixed_updates(self):
        db, index, query, edges = self._fresh_db(seed=47)
        for i, factor in enumerate((1.5, 0.6, 2.0)):
            edge = db.network.edge(edges[i].edge_id)
            oracle = db.hub_oracle()
            db.update_edge_weight(edge.edge_id, edge.weight * factor)
            self._assert_matches_dijkstra(db, index, query)
            assert db.hub_oracle() is not oracle
