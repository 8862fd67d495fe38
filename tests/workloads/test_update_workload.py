"""Mixed update/query workloads: batching, reporting, determinism."""

import numpy as np
import pytest

from repro.datasets.catalog import DatasetProfile, build_dataset
from repro.errors import QueryError
from repro.workloads import (
    UpdateWorkloadConfig,
    WorkloadConfig,
    generate_diversified_queries,
    generate_update_ops,
    run_update_workload,
)
from tests.conftest import hub_label_distances

PROFILE = DatasetProfile(
    name="TINY-UPD",
    network_kind="planar",
    num_nodes=120,
    neighbours=3,
    num_objects=400,
    vocabulary_size=80,
    avg_keywords=6,
    zipf_z=1.0,
    num_topics=8,
    seed=5,
)


def make_db():
    return build_dataset(PROFILE)


def make_queries(db, n=8, seed=31):
    return generate_diversified_queries(
        db, WorkloadConfig(num_queries=n, num_keywords=2, k=4, seed=seed)
    )


class TestConfigValidation:
    def test_rejects_negative_updates(self):
        with pytest.raises(QueryError):
            UpdateWorkloadConfig(updates_per_batch=-1)

    def test_rejects_zero_batches(self):
        with pytest.raises(QueryError):
            UpdateWorkloadConfig(num_batches=0)

    def test_rejects_all_zero_weights(self):
        with pytest.raises(QueryError):
            UpdateWorkloadConfig(
                insert_weight=0.0, delete_weight=0.0, edge_weight_weight=0.0
            )

    def test_rejects_bad_factor_range(self):
        with pytest.raises(QueryError):
            UpdateWorkloadConfig(weight_factor_range=(0.0, 2.0))
        with pytest.raises(QueryError):
            UpdateWorkloadConfig(weight_factor_range=(2.0, 0.5))


class TestGeneration:
    def test_ops_follow_the_mix(self):
        db = make_db()
        config = UpdateWorkloadConfig(
            insert_weight=1.0, delete_weight=0.0, edge_weight_weight=0.0
        )
        rng = np.random.default_rng(1)
        ops = generate_update_ops(db, config, 10, rng)
        assert [kind for kind, _ in ops] == ["insert"] * 10

    def test_ops_are_seed_deterministic(self):
        db = make_db()
        config = UpdateWorkloadConfig(seed=9)
        a = generate_update_ops(db, config, 30, np.random.default_rng(9))
        b = generate_update_ops(db, config, 30, np.random.default_rng(9))
        assert a == b


class TestRun:
    def test_report_shape_and_epoch(self):
        db = make_db()
        index = db.build_index("sif", file_prefix="upd-shape")
        config = UpdateWorkloadConfig(updates_per_batch=5, num_batches=3)
        report = run_update_workload(db, index, make_queries(db), config)
        assert report.query_report.num_queries == 8
        # 2 update rounds of 5; every op resolves on a populated db.
        assert sum(report.updates_applied.values()) == 10
        assert report.final_epoch == db.data_version
        assert report.final_epoch == 10
        row = report.row()
        assert row["updates"] == 10
        assert row["epoch"] == 10
        assert row["update_ms"] >= 0.0
        for kind, count in report.updates_applied.items():
            assert row[f"updates_{kind}"] == count
        record = report.summary_record()
        assert record["type"] == "update_workload"
        assert record["final_epoch"] == 10
        assert record["updates_applied"] == report.updates_applied

    def test_emits_summary_metric(self):
        db = make_db()
        index = db.build_index("sif", file_prefix="upd-metric")
        records = []

        class _Sink:
            def emit(self, record):
                records.append(record)

        db.metrics.add_sink(_Sink())
        run_update_workload(
            db,
            index,
            make_queries(db, n=4),
            UpdateWorkloadConfig(updates_per_batch=2, num_batches=2),
        )
        assert any(r.get("type") == "update_workload" for r in records)

    def test_workers_run_the_same_queries(self):
        db = make_db()
        index = db.build_index("sif", file_prefix="upd-workers")
        config = UpdateWorkloadConfig(updates_per_batch=4, num_batches=2, seed=3)
        report = run_update_workload(
            db,
            index,
            make_queries(db, n=6),
            config,
            workers=4,
        )
        assert report.query_report.workers == 4
        assert report.query_report.num_queries == 6
        assert sum(report.updates_applied.values()) == 4

    def test_single_batch_applies_no_updates(self):
        db = make_db()
        index = db.build_index("sif", file_prefix="upd-single")
        report = run_update_workload(
            db,
            index,
            make_queries(db, n=3),
            UpdateWorkloadConfig(updates_per_batch=50, num_batches=1),
        )
        assert report.updates_applied == {}
        assert report.final_epoch == 0

    def test_updated_answers_match_a_fresh_serial_query(self):
        """After the workload, the engine's answer to any query equals
        SEQ run directly against the mutated database with a computer of
        its own — the workload leaves no stale state behind."""
        from repro.core.diversified_search import seq_search
        from repro.engine.plan import plan_diversified

        db = make_db()
        index = db.build_index("sif", file_prefix="upd-consist")
        queries = make_queries(db, n=6, seed=17)
        run_update_workload(
            db,
            index,
            queries,
            UpdateWorkloadConfig(updates_per_batch=10, num_batches=3, seed=5),
            workers=2,
        )
        for q in queries:
            via_engine = db.engine.execute(
                plan_diversified(db, index, q, method="seq")
            )
            scratch = seq_search(db.ccam, db.network, index, q)
            assert via_engine.object_ids() == scratch.object_ids()

    def test_hub_backend_never_serves_stale_answers(self):
        """The update workload with the hub-label oracle answering
        every pairwise distance: every reweight batch drops the labels,
        and post-workload answers equal a dijkstra evaluation against
        the mutated network — i.e. the lazily rebuilt labels reflect
        every journaled update."""
        db = make_db()
        oracle = db.hub_oracle()  # built eagerly: the workload must drop it
        index = db.build_index("sif", file_prefix="upd-hub")
        queries = make_queries(db, n=5, seed=23)
        with hub_label_distances(db):
            report = run_update_workload(
                db,
                index,
                queries,
                UpdateWorkloadConfig(
                    updates_per_batch=8, num_batches=3, seed=9
                ),
            )
        reweights = db.metrics.counters().get("update.edge_weight", 0)
        assert report.final_epoch == db.data_version > 0
        if reweights:
            assert db.hub_oracle() is not oracle
        for q in queries:
            with hub_label_distances(db):
                got = db.diversified_search(index, q, method="com")
            db.use_distance_backend("dijkstra")
            want = db.diversified_search(index, q, method="com")
            db.use_distance_backend("csgraph")
            assert got.object_ids() == want.object_ids()
            assert got.objective_value == pytest.approx(
                want.objective_value
            )


class TestPendingQueriesFollowReweights:
    def test_heavy_reweight_run_keeps_every_query_on_its_edge(
        self, monkeypatch
    ):
        """``repro update`` draws every query before its first batch; a
        reweight that shrinks an edge under a pending query used to
        leave the query's offset past the edge's end (offset 167.5 on
        edge 793, weight 153.9, in this run), where the expansion can
        seed negative distances.  Each pending query now moves with its
        edge: every plan passes the planner's edge check and every
        distance is >= 0."""
        from repro.cli import main
        from repro.engine.executor import QueryEngine

        results, off_edge = [], []
        execute_many = QueryEngine.execute_many

        def capture(self, plans, workers=1):
            for plan in plans:
                pos = plan.query.position
                if pos.offset > self.db.network.edge(pos.edge_id).weight:
                    off_edge.append(pos)
            batch = execute_many(self, plans, workers)
            results.extend(batch)
            return batch

        monkeypatch.setattr(QueryEngine, "execute_many", capture)
        assert main([
            "update", "SYN", "--scale", "0.25", "--queries", "60",
            "--keywords", "2", "--k", "4", "--batches", "6",
            "--updates-per-batch", "40", "--edge-weight-weight", "5",
        ]) == 0
        assert len(results) == 60
        assert off_edge == []
        distances = [item.distance for r in results for item in r.items]
        assert distances and min(distances) >= 0
