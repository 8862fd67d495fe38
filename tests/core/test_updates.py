"""Dynamic-update orchestration: journal, epochs, reweights, stale reads."""

import math

import pytest

from repro import Database, NetworkPosition
from repro.core.updates import UpdateJournal, UpdateRecord
from repro.errors import DatasetError, GraphError, QueryError
from tests.conftest import assert_catalogue_matches_recount


@pytest.fixture()
def live_db(grid_network9):
    db = Database(grid_network9, buffer_pages=64)
    db.add_object(NetworkPosition(0, 20.0), {"pizza"})
    db.add_object(NetworkPosition(3, 50.0), {"pizza", "bar"})
    db.freeze()
    return db


class TestUpdateJournal:
    def test_append_requires_increasing_epoch(self):
        journal = UpdateJournal()
        journal.append(UpdateRecord(epoch=1, kind="insert", edge_id=0))
        journal.append(UpdateRecord(epoch=2, kind="delete", edge_id=0))
        with pytest.raises(ValueError):
            journal.append(UpdateRecord(epoch=2, kind="insert", edge_id=0))
        with pytest.raises(ValueError):
            journal.append(UpdateRecord(epoch=1, kind="insert", edge_id=0))

    def test_since_returns_strict_tail(self):
        journal = UpdateJournal()
        for epoch in (1, 2, 5):
            journal.append(
                UpdateRecord(epoch=epoch, kind="edge_weight", edge_id=0)
            )
        assert [r.epoch for r in journal.since(0)] == [1, 2, 5]
        assert [r.epoch for r in journal.since(2)] == [5]
        assert journal.since(5) == []
        assert len(journal) == 3

    def test_counts(self):
        journal = UpdateJournal()
        journal.append(UpdateRecord(epoch=1, kind="insert", edge_id=0))
        journal.append(UpdateRecord(epoch=2, kind="insert", edge_id=1))
        journal.append(UpdateRecord(epoch=3, kind="delete", edge_id=0))
        assert journal.counts() == {"insert": 2, "delete": 1, "edge_weight": 0}

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            UpdateRecord(epoch=1, kind="rename", edge_id=0)


class TestDatabaseUpdates:
    def test_epochs_advance_and_journal_records(self, live_db):
        assert live_db.data_version == 0
        obj = live_db.insert_object(NetworkPosition(1, 10.0), {"sushi"})
        assert live_db.data_version == 1
        live_db.delete_object(obj.object_id)
        assert live_db.data_version == 2
        live_db.update_edge_weight(0, 120.0)
        assert live_db.data_version == 3
        kinds = [r.kind for r in live_db.update_journal.since(0)]
        assert kinds == ["insert", "delete", "edge_weight"]
        assert live_db.metrics.counters()["update.insert"] == 1

    def test_object_ids_never_reused(self, live_db):
        a = live_db.insert_object(NetworkPosition(1, 10.0), {"x"})
        live_db.delete_object(a.object_id)
        b = live_db.insert_object(NetworkPosition(1, 10.0), {"x"})
        assert b.object_id != a.object_id

    def test_delete_unknown_object_raises(self, live_db):
        with pytest.raises(DatasetError):
            live_db.delete_object(999)

    def test_reweight_rescales_offsets_and_adjacency(self, live_db):
        edge = live_db.network.edge(0)
        on_edge = live_db.store.objects_on_edge(0)
        old_offsets = [o.position.offset for o in on_edge]
        live_db.update_edge_weight(0, edge.weight * 2.0)
        assert live_db.network.edge(0).weight == pytest.approx(
            edge.weight * 2.0
        )
        # Adjacency lists carry the new weight on both endpoints.
        for node_id in (edge.n1, edge.n2):
            weights = [
                w for eid, _o, w in live_db.network.neighbors(node_id)
                if eid == 0
            ]
            assert weights == [pytest.approx(edge.weight * 2.0)]
        # Objects keep their geometric spot: offsets scale with weight.
        new_offsets = [
            o.position.offset for o in live_db.store.objects_on_edge(0)
        ]
        assert new_offsets == [pytest.approx(2.0 * off) for off in old_offsets]

    def test_reweight_refreshes_ccam_pages(self, live_db):
        edge = live_db.network.edge(0)
        live_db.update_edge_weight(0, edge.weight * 3.0)
        for node_id in (edge.n1, edge.n2):
            weights = [
                w for eid, _o, w in live_db.ccam.neighbors(node_id)
                if eid == 0
            ]
            assert weights == [pytest.approx(edge.weight * 3.0)]

    def test_reweight_noop_when_weight_unchanged(self, live_db):
        edge = live_db.network.edge(0)
        live_db.update_edge_weight(0, edge.weight)
        assert live_db.data_version == 0
        assert len(live_db.update_journal) == 0

    def test_reweight_rejects_nonpositive_weight(self, live_db):
        with pytest.raises(GraphError):
            live_db.update_edge_weight(0, 0.0)

    @pytest.mark.parametrize(
        "weight", [math.nan, math.inf, -math.inf, 0.0, -5.0],
        ids=["nan", "inf", "-inf", "zero", "negative"],
    )
    def test_reweight_rejects_weights_outside_zero_to_inf(
        self, live_db, weight
    ):
        """A refused weight changes nothing: epoch, journal, the edge,
        its CCAM adjacency and its objects' offsets stay as they were."""
        edge = live_db.network.edge(0)
        offsets = [o.position.offset for o in live_db.store.objects_on_edge(0)]

        def adjacency():
            return [
                (node_id, w)
                for node_id in (edge.n1, edge.n2)
                for eid, _o, w in live_db.ccam.neighbors(node_id)
                if eid == 0
            ]

        before = adjacency()
        with pytest.raises(GraphError):
            live_db.update_edge_weight(0, weight)
        assert live_db.data_version == 0
        assert len(live_db.update_journal) == 0
        assert live_db.network.edge(0) == edge
        assert adjacency() == before
        assert [
            o.position.offset for o in live_db.store.objects_on_edge(0)
        ] == offsets

    def test_reweight_drops_ch_oracle_for_lazy_rebuild(self, live_db):
        """The Contraction Hierarchy is the hub labels' ingredient: a
        reweight drops it with the labels, and the next label build
        rebuilds it against the new weights — without a ``ch.*``
        counter."""
        ordering = live_db.hub_oracle().ch
        live_db.update_edge_weight(0, 140.0)
        assert live_db._ch_oracle is None
        rebuilt = live_db.hub_oracle().ch
        assert rebuilt is not ordering
        assert rebuilt is live_db.ch_oracle()
        assert not [
            name for name in live_db.metrics.counters()
            if name.startswith("ch.")
        ]

    def test_reweight_drops_hub_oracle_for_lazy_rebuild(self, live_db):
        oracle = live_db.hub_oracle()
        live_db.update_edge_weight(0, 140.0)
        assert live_db._hub_oracle is None
        rebuilt = live_db.hub_oracle()
        assert rebuilt is not oracle
        # The rebuilt labels see the new weight (the detour is 300).
        edge = live_db.network.edge(0)
        assert rebuilt.node_distance(edge.n1, edge.n2) == 140.0

    def test_catalogue_statistics_track_interleaved_updates(self, live_db):
        """The store's running df / vocabulary / keyword-total counters
        equal a from-scratch recount after every kind of update."""
        sif = live_db.build_index("sif")

        def check():
            assert_catalogue_matches_recount(live_db.store)
            stats = live_db.dataset_statistics()
            assert stats["num_objects"] == len(list(live_db.store))
            assert stats["vocabulary_size"] == len(live_db.store.keyword_frequencies())

        check()
        sushi = live_db.insert_object(
            NetworkPosition(1, 10.0), {"sushi", "bar"}, indexes=(sif,)
        )
        check()
        live_db.update_edge_weight(1, 180.0, indexes=(sif,))
        check()
        vocabulary = live_db.store.vocabulary_size
        live_db.delete_object(sushi.object_id, indexes=(sif,))
        # "sushi" lost its last holder; "bar" did not.
        assert live_db.store.vocabulary_size == vocabulary - 1
        assert "sushi" not in live_db.store.keyword_frequencies()
        assert live_db.store.keyword_frequencies()["bar"] == 1
        check()
        live_db.insert_object(NetworkPosition(1, 90.0), {"sushi"}, indexes=(sif,))
        live_db.update_edge_weight(1, 60.0, indexes=(sif,))
        live_db.insert_object(NetworkPosition(3, 5.0), {"pizza"}, indexes=(sif,))
        check()
        for object_id in [o.object_id for o in live_db.store]:
            live_db.delete_object(object_id, indexes=(sif,))
            check()
        assert live_db.dataset_statistics()["vocabulary_size"] == 0
        assert live_db.dataset_statistics()["avg_keywords"] == 0.0

    def test_updates_require_frozen_db(self, grid_network9):
        db = Database(grid_network9, buffer_pages=8)
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            db.update_edge_weight(0, 50.0)
        with pytest.raises(ReproError):
            db.delete_object(0)

    def test_index_without_delete_support_rejected(self, live_db):
        index = live_db.build_index("ir")
        obj = live_db.insert_object(NetworkPosition(1, 5.0), {"x"})
        with pytest.raises(QueryError):
            live_db.delete_object(obj.object_id, indexes=(index,))


class TestReweightRelevance:
    """A standing query asks one question of an edge reweight — could it
    reach this answer? — and re-bootstraps only when it could."""

    @pytest.mark.parametrize(
        "edge_id, relevant", [(0, True), (11, False)], ids=["near", "far"]
    )
    def test_standing_query_classifies_a_reweight(
        self, live_db, edge_id, relevant
    ):
        from repro.core.incremental import IncrementalDiversifiedTopK
        from repro.core.queries import DiversifiedSKQuery

        index = live_db.build_index("sif")
        # Edge 0 holds the query; edge 11 is the grid's far corner,
        # beyond the radius a 30-unit answer depends on.
        q = DiversifiedSKQuery.create(
            NetworkPosition(0, 0.0), ["pizza"], 30.0, 2, 0.8
        )
        standing = IncrementalDiversifiedTopK(live_db, index, q)
        assert standing._reweight_is_relevant(edge_id) is relevant
        weight = live_db.network.edge(edge_id).weight
        live_db.update_edge_weight(edge_id, weight * 2.0, indexes=(index,))
        standing.refresh()
        assert standing.full_recomputes == int(relevant)
        assert standing.result().object_ids() == live_db.diversified_search(
            index, q, method="seq"
        ).object_ids()


class TestStaleReadSafety:
    def test_new_epoch_query_never_sees_pre_update_maps(self, live_db):
        """After an edge reweight commits, a query pinned to the new
        epoch reads no node map computed before the update: each query
        computes its own."""
        from repro.core.queries import DiversifiedSKQuery

        index = live_db.build_index("sif")
        q = DiversifiedSKQuery.create(
            NetworkPosition(0, 0.0), ["pizza"], 1000.0, 2, 0.8
        )
        before = live_db.diversified_search(index, q, method="seq")
        live_db.update_edge_weight(0, 37.0)
        after = live_db.diversified_search(index, q, method="seq")
        # The rescaled edge moved the query-edge objects: distances in
        # the new answer reflect post-update weights, not cached ones.
        d_before = {i.object.object_id: i.distance for i in before.items}
        d_after = {i.object.object_id: i.distance for i in after.items}
        changed = [
            oid for oid in d_before
            if oid in d_after
            and d_after[oid] != pytest.approx(d_before[oid])
        ]
        assert changed, "reweight must be visible to the next query"

    def test_plans_expose_dynamic_hints(self, live_db):
        from repro.core.queries import DiversifiedSKQuery
        from repro.engine.plan import plan_diversified

        index = live_db.build_index("sif")
        live_db.insert_object(NetworkPosition(1, 10.0), {"pizza"}, [index])
        q = DiversifiedSKQuery.create(
            NetworkPosition(0, 0.0), ["pizza"], 1000.0, 2, 0.8
        )
        plan = plan_diversified(live_db, index, q, method="seq")
        assert plan.hints.data_version == 1
        assert plan.hints.recent_updates == 1
        assert "epoch 1" in plan.describe()

    def test_query_stats_carry_epoch(self, live_db):
        from repro.core.queries import DiversifiedSKQuery

        index = live_db.build_index("sif")
        q = DiversifiedSKQuery.create(
            NetworkPosition(0, 0.0), ["pizza"], 1000.0, 2, 0.8
        )
        live_db.update_edge_weight(4, 250.0)
        result = live_db.diversified_search(index, q, method="seq")
        assert result.stats.epoch == live_db.data_version
