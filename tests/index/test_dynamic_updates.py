"""Tests for dynamic insertion and deletion in IF, SIF and SIF-P."""

import numpy as np
import pytest

from repro import Database, SKQuery
from repro.errors import QueryError
from repro.index.inverted_file import POSTINGS_PER_PAGE
from repro.network.graph import NetworkPosition
from tests.datasets.test_catalog import trees_and_rows
from tests.index.test_postings_layout import runs_of


@pytest.fixture()
def live_db(grid_network9):
    db = Database(grid_network9, buffer_pages=64)
    db.add_object(NetworkPosition(0, 20.0), {"pizza"})
    db.add_object(NetworkPosition(3, 50.0), {"pizza", "bar"})
    db.freeze()
    return db


def random_burst(db, indexes, rng, count=120):
    """Insert ``count`` random objects through the dynamic path."""
    for _ in range(count):
        edge = db.network.edge(int(rng.integers(0, 12)))
        offset = float(rng.uniform(0, edge.weight))
        terms = {f"t{int(rng.integers(0, 6))}", "pizza"}
        db.insert_object(
            NetworkPosition(edge.edge_id, offset), terms, indexes
        )


class TestInsertIntoIF:
    def test_new_object_becomes_findable(self, live_db):
        index = live_db.build_index("if")
        q = SKQuery.create(NetworkPosition(0, 0.0), ["sushi"], 1000.0)
        assert len(live_db.sk_search(index, q)) == 0
        live_db.insert_object(NetworkPosition(0, 70.0), {"sushi"}, [index])
        result = live_db.sk_search(index, q)
        assert len(result) == 1
        assert result.items[0].distance == pytest.approx(70.0)

    def test_insert_existing_term_same_edge(self, live_db):
        index = live_db.build_index("if")
        live_db.insert_object(NetworkPosition(0, 90.0), {"pizza"}, [index])
        q = SKQuery.create(NetworkPosition(0, 0.0), ["pizza"], 1000.0)
        assert len(live_db.sk_search(index, q)) == 3

    def test_insert_on_fresh_edge(self, live_db):
        index = live_db.build_index("if")
        live_db.insert_object(NetworkPosition(7, 10.0), {"pizza"}, [index])
        q = SKQuery.create(NetworkPosition(7, 0.0), ["pizza"], 2000.0)
        ids = live_db.sk_search(index, q).object_ids()
        assert len(ids) == 3

    def test_many_inserts_keep_equivalence(self, live_db):
        """After a burst of inserts the dynamic index answers exactly
        like a freshly rebuilt one."""
        index = live_db.build_index("if")
        random_burst(live_db, [index], np.random.default_rng(5))
        rebuilt = live_db.build_index("if", file_prefix="if-rebuilt")
        for term in ("pizza", "t0", "t3", "bar"):
            q = SKQuery.create(NetworkPosition(0, 0.0), [term], 5000.0)
            assert sorted(live_db.sk_search(index, q).object_ids()) == sorted(
                live_db.sk_search(rebuilt, q).object_ids()
            )


@pytest.mark.parametrize("kind", ["if", "sif", "sif-p"])
def test_a_one_page_run_spills_into_a_page_list(live_db, kind):
    """Inserts onto edges 0 and 3, which share the one page of "pizza",
    fill that page: the next insert makes the edge's run, that page's
    ``int``, the list of its two pages in page order, and answers stay
    those of a fresh rebuild."""
    index = live_db.build_index(kind)
    tree = trees_and_rows(index)[0]["pizza"]
    (page,) = set(runs_of(tree))
    assert type(page) is int
    for i in range(POSTINGS_PER_PAGE):
        edge = live_db.network.edge(3 * (i % 2))
        offset = float(edge.weight * (i + 1) / (POSTINGS_PER_PAGE + 2))
        live_db.insert_object(
            NetworkPosition(edge.edge_id, offset), {"pizza"}, [index]
        )
    runs = list(runs_of(tree))
    assert [run for run in runs if type(run) is not int] == runs
    assert all(len(run) == 2 and page == run[0] < run[1] for run in runs)
    rebuilt = live_db.build_index(kind, file_prefix=f"{kind}-rebuilt")
    for edge_id in (0, 3, 11):
        q = SKQuery.create(NetworkPosition(edge_id, 0.0), ["pizza"], 5000.0)
        assert sorted(live_db.sk_search(index, q).object_ids()) == sorted(
            live_db.sk_search(rebuilt, q).object_ids()
        )


class TestDeleteFromIF:
    def test_deleted_object_disappears(self, live_db):
        index = live_db.build_index("if")
        q = SKQuery.create(NetworkPosition(0, 0.0), ["pizza"], 1000.0)
        victim = live_db.sk_search(index, q).object_ids()[0]
        live_db.delete_object(victim, indexes=(index,))
        assert victim not in live_db.sk_search(index, q).object_ids()

    def test_insert_delete_burst_keeps_equivalence(self, live_db):
        index = live_db.build_index("if")
        rng = np.random.default_rng(11)
        random_burst(live_db, [index], rng, count=80)
        for _ in range(40):
            objects = list(live_db.store)
            victim = objects[int(rng.integers(0, len(objects)))]
            live_db.delete_object(victim.object_id, indexes=(index,))
        rebuilt = live_db.build_index("if", file_prefix="if-rebuilt-del")
        for term in ("pizza", "t0", "t3", "bar"):
            q = SKQuery.create(NetworkPosition(0, 0.0), [term], 5000.0)
            assert sorted(live_db.sk_search(index, q).object_ids()) == sorted(
                live_db.sk_search(rebuilt, q).object_ids()
            )


class TestInsertIntoSIF:
    def test_signature_bit_is_set(self, live_db):
        index = live_db.build_index("sif")
        # Before: edge 5 has no "pizza" bit -> pruned with zero loads.
        index.lifetime_counters.reset()
        assert index.load_objects(5, frozenset({"pizza"})) == []
        assert index.lifetime_counters.edges_pruned_by_signature == 1
        live_db.insert_object(NetworkPosition(5, 30.0), {"pizza"}, [index])
        got = index.load_objects(5, frozenset({"pizza"}))
        assert len(got) == 1

    def test_and_semantics_after_insert(self, live_db):
        index = live_db.build_index("sif")
        live_db.insert_object(NetworkPosition(0, 40.0), {"pizza", "vegan"},
                              [index])
        q = SKQuery.create(NetworkPosition(0, 0.0), ["pizza", "vegan"], 1000.0)
        result = live_db.sk_search(index, q)
        assert len(result) == 1


class TestDeleteFromSIF:
    def test_bit_cleared_only_when_orphaned(self, live_db):
        index = live_db.build_index("sif")
        a = live_db.insert_object(NetworkPosition(5, 30.0), {"pizza"}, [index])
        b = live_db.insert_object(NetworkPosition(5, 60.0), {"pizza"}, [index])
        # Two carriers: deleting one must keep the bit set.
        live_db.delete_object(a.object_id, indexes=(index,))
        assert len(index.load_objects(5, frozenset({"pizza"}))) == 1
        # Last carrier gone: the edge prunes by signature again.
        live_db.delete_object(b.object_id, indexes=(index,))
        index.lifetime_counters.reset()
        assert index.load_objects(5, frozenset({"pizza"})) == []
        assert index.lifetime_counters.edges_pruned_by_signature == 1

    def test_burst_equivalence_with_rebuilt(self, live_db):
        index = live_db.build_index("sif")
        rng = np.random.default_rng(23)
        random_burst(live_db, [index], rng, count=80)
        for _ in range(40):
            objects = list(live_db.store)
            victim = objects[int(rng.integers(0, len(objects)))]
            live_db.delete_object(victim.object_id, indexes=(index,))
        rebuilt = live_db.build_index("sif", file_prefix="sif-rebuilt-del")
        for term in ("pizza", "t0", "t3", "bar"):
            q = SKQuery.create(NetworkPosition(0, 0.0), [term], 5000.0)
            assert sorted(live_db.sk_search(index, q).object_ids()) == sorted(
                live_db.sk_search(rebuilt, q).object_ids()
            )


class TestSIFPDynamic:
    def test_insert_becomes_findable(self, live_db):
        index = live_db.build_index("sif-p")
        q = SKQuery.create(NetworkPosition(0, 0.0), ["sushi"], 1000.0)
        assert len(live_db.sk_search(index, q)) == 0
        live_db.insert_object(NetworkPosition(0, 70.0), {"sushi"}, [index])
        result = live_db.sk_search(index, q)
        assert len(result) == 1
        assert result.items[0].distance == pytest.approx(70.0)

    def test_delete_disappears(self, live_db):
        index = live_db.build_index("sif-p")
        q = SKQuery.create(NetworkPosition(0, 0.0), ["pizza"], 1000.0)
        victim = live_db.sk_search(index, q).object_ids()[0]
        live_db.delete_object(victim, indexes=(index,))
        assert victim not in live_db.sk_search(index, q).object_ids()

    def test_burst_equivalence_with_rebuilt(self, live_db):
        """Inserts then deletes through the dynamic path answer exactly
        like a freshly rebuilt SIF-P (trees, virtual-edge bits and
        segment tables all kept consistent)."""
        index = live_db.build_index("sif-p")
        rng = np.random.default_rng(37)
        random_burst(live_db, [index], rng, count=80)
        for _ in range(40):
            objects = list(live_db.store)
            victim = objects[int(rng.integers(0, len(objects)))]
            live_db.delete_object(victim.object_id, indexes=(index,))
        rebuilt = live_db.build_index("sif-p", file_prefix="sifp-rebuilt")
        for term in ("pizza", "t0", "t3", "bar"):
            q = SKQuery.create(NetworkPosition(0, 0.0), [term], 5000.0)
            assert sorted(live_db.sk_search(index, q).object_ids()) == sorted(
                live_db.sk_search(rebuilt, q).object_ids()
            )


class TestUnsupportedKinds:
    @staticmethod
    def _state(db, sif):
        """What a refused update must leave as it was: the store, the
        epoch, the journal, and the answers of an index that came
        before the refusing one."""
        answers = {
            term: db.sk_search(
                sif, SKQuery.create(NetworkPosition(0, 0.0), [term], 1000.0)
            ).object_ids()
            for term in ("pizza", "x")
        }
        return len(db.store), db.data_version, len(db.update_journal), answers

    def test_ir_rejects_dynamic_insert(self, live_db):
        sif, ir = live_db.build_index("sif"), live_db.build_index("ir")
        before = self._state(live_db, sif)
        with pytest.raises(QueryError, match="IR does not support"):
            live_db.insert_object(NetworkPosition(0, 10.0), {"x"}, [sif, ir])
        assert self._state(live_db, sif) == before

    def test_ir_rejects_dynamic_delete(self, live_db):
        sif, ir = live_db.build_index("sif"), live_db.build_index("ir")
        before = self._state(live_db, sif)
        victim = next(iter(live_db.store)).object_id
        with pytest.raises(QueryError, match="IR does not support"):
            live_db.delete_object(victim, iter([sif, ir]))
        assert self._state(live_db, sif) == before

    def test_insert_requires_frozen_db(self, grid_network9):
        db = Database(grid_network9, buffer_pages=8)
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            db.insert_object(NetworkPosition(0, 1.0), {"x"})
