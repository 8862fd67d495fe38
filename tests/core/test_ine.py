"""Tests for the INE expansion (Algorithm 3) against brute force."""


import pytest

from repro.core.ine import INEExpansion
from repro.network.graph import NetworkPosition
from repro.workloads.queries import WorkloadConfig, generate_sk_queries
from tests.reference import network_distance


def brute_force_sk(db, position, terms, delta_max):
    """Ground truth: scan every object, exact distance, AND filter."""
    out = {}
    for obj in db.store:
        if not obj.contains_all(terms):
            continue
        d = network_distance(
            db.network, db.network, position, obj.position, cutoff=delta_max
        )
        if d <= delta_max:
            out[obj.object_id] = d
    return out


@pytest.fixture(scope="module")
def sif(tiny_db):
    return tiny_db.build_index("sif", file_prefix="ine-sif")


class TestCorrectness:
    def test_matches_brute_force_on_workload(self, tiny_db, sif):
        queries = generate_sk_queries(
            tiny_db, WorkloadConfig(num_queries=25, num_keywords=2, seed=77)
        )
        for q in queries:
            exp = INEExpansion(
                tiny_db.ccam, tiny_db.network, sif, q.position, q.terms, q.delta_max
            )
            got = {it.object.object_id: it.distance for it in exp.run()}
            expected = brute_force_sk(tiny_db, q.position, q.terms, q.delta_max)
            assert set(got) == set(expected)
            for oid, d in expected.items():
                assert got[oid] == pytest.approx(d, abs=1e-6)

    def test_stream_is_sorted_by_distance(self, tiny_db, sif):
        queries = generate_sk_queries(
            tiny_db, WorkloadConfig(num_queries=10, num_keywords=1, seed=31)
        )
        for q in queries:
            exp = INEExpansion(
                tiny_db.ccam, tiny_db.network, sif, q.position, q.terms, q.delta_max
            )
            dists = [it.distance for it in exp.run()]
            assert dists == sorted(dists)

    def test_all_results_within_delta_max(self, tiny_db, sif):
        queries = generate_sk_queries(
            tiny_db, WorkloadConfig(num_queries=10, num_keywords=1, seed=13)
        )
        for q in queries:
            exp = INEExpansion(
                tiny_db.ccam, tiny_db.network, sif, q.position, q.terms, q.delta_max
            )
            for it in exp.run():
                assert it.distance <= q.delta_max + 1e-9
                assert it.object.contains_all(q.terms)

    def test_no_duplicates(self, tiny_db, sif):
        queries = generate_sk_queries(
            tiny_db, WorkloadConfig(num_queries=10, num_keywords=1, seed=99)
        )
        for q in queries:
            exp = INEExpansion(
                tiny_db.ccam, tiny_db.network, sif, q.position, q.terms, q.delta_max
            )
            ids = [it.object.object_id for it in exp.run()]
            assert len(ids) == len(set(ids))


class TestSmallNetworks:
    def test_query_on_object_edge(self, line_network):
        from repro.core.database import Database

        db = Database(line_network, buffer_pages=32)
        db.add_object(NetworkPosition(0, 20.0), {"a"})
        db.add_object(NetworkPosition(0, 80.0), {"a"})
        db.add_object(NetworkPosition(2, 50.0), {"a"})
        db.freeze()
        index = db.build_index("sif")
        exp = INEExpansion(
            db.ccam, db.network, index, NetworkPosition(0, 50.0),
            frozenset({"a"}), 400.0,
        )
        items = list(exp.run())
        assert [it.object.object_id for it in items] == [0, 1, 2]
        assert items[0].distance == pytest.approx(30.0)
        assert items[1].distance == pytest.approx(30.0)
        assert items[2].distance == pytest.approx(200.0)

    def test_delta_max_cuts_off(self, line_network):
        from repro.core.database import Database

        db = Database(line_network, buffer_pages=32)
        db.add_object(NetworkPosition(0, 10.0), {"a"})
        db.add_object(NetworkPosition(3, 90.0), {"a"})
        db.freeze()
        index = db.build_index("sif")
        exp = INEExpansion(
            db.ccam, db.network, index, NetworkPosition(0, 0.0),
            frozenset({"a"}), 100.0,
        )
        items = list(exp.run())
        assert [it.object.object_id for it in items] == [0]

    def test_relaxation_through_second_endpoint(self, grid_network9):
        """An object's distance must improve when the far end-node
        offers a shorter path."""
        from repro.core.database import Database

        db = Database(grid_network9, buffer_pages=32)
        # Edge between nodes 2 (200,0) and 5 (200,100); object near node 5.
        edge = grid_network9.edge_between(2, 5)
        db.add_object(NetworkPosition(edge.edge_id, 90.0), {"a"})
        db.freeze()
        index = db.build_index("sif")
        # Query at node 8 (200,200): path to node 5 is 100, to node 2 is 200.
        q = grid_network9.node_position(8)
        exp = INEExpansion(
            db.ccam, db.network, index, q, frozenset({"a"}), 1000.0
        )
        items = list(exp.run())
        assert len(items) == 1
        # Via node 5: 100 + (100 - 90) = 110; via node 2 it would be 290.
        assert items[0].distance == pytest.approx(110.0)


class TestStats:
    def test_stats_populated(self, tiny_db, sif):
        q = generate_sk_queries(
            tiny_db, WorkloadConfig(num_queries=1, num_keywords=2, seed=3)
        )[0]
        exp = INEExpansion(
            tiny_db.ccam, tiny_db.network, sif, q.position, q.terms, q.delta_max
        )
        items = list(exp.run())
        assert exp.stats.nodes_accessed > 0
        assert exp.stats.edges_accessed > 0
        assert exp.stats.objects_emitted == len(items)

    def test_closing_generator_stops_expansion(self, tiny_db, sif):
        # Query the most frequent keyword with a wide radius so the
        # stream is guaranteed to hold several results.
        freq = tiny_db.store.keyword_frequencies()
        top_term = max(freq, key=freq.get)
        position = next(iter(tiny_db.store)).position
        terms = frozenset({top_term})
        full = INEExpansion(
            tiny_db.ccam, tiny_db.network, sif, position, terms, 8000.0
        )
        n_full = len(list(full.run()))
        assert n_full >= 2
        partial = INEExpansion(
            tiny_db.ccam, tiny_db.network, sif, position, terms, 8000.0
        )
        gen = partial.run()
        next(gen)
        gen.close()
        assert partial.stats.nodes_accessed < full.stats.nodes_accessed
