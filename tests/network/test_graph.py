"""Tests for the road-network graph model."""

import pytest

from repro.errors import GraphError
from repro.network.graph import NetworkPosition, RoadNetwork
from repro.spatial.geometry import MBR, Point
from tests.reference import validate_network


class TestConstruction:
    def test_add_nodes_and_edges(self, paper_network):
        assert paper_network.num_nodes == 7
        assert paper_network.num_edges == 8

    def test_duplicate_node_rejected(self):
        n = RoadNetwork()
        n.add_node(0, 0, 0)
        with pytest.raises(GraphError):
            n.add_node(0, 1, 1)

    def test_self_loop_rejected(self):
        n = RoadNetwork()
        n.add_node(0, 0, 0)
        with pytest.raises(GraphError):
            n.add_edge(0, 0)

    def test_unknown_node_rejected(self):
        n = RoadNetwork()
        n.add_node(0, 0, 0)
        with pytest.raises(GraphError):
            n.add_edge(0, 1)

    def test_duplicate_edge_rejected(self):
        n = RoadNetwork()
        n.add_node(0, 0, 0)
        n.add_node(1, 10, 0)
        n.add_edge(0, 1)
        with pytest.raises(GraphError):
            n.add_edge(1, 0)

    def test_zero_length_edge_rejected(self):
        n = RoadNetwork()
        n.add_node(0, 5, 5)
        n.add_node(1, 5, 5)
        with pytest.raises(GraphError):
            n.add_edge(0, 1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0])
    def test_weight_and_length_outside_zero_to_inf_rejected(self, value):
        n = RoadNetwork()
        n.add_node(0, 0, 0)
        n.add_node(1, 10, 0)
        with pytest.raises(GraphError):
            n.add_edge(0, 1, weight=value)
        with pytest.raises(GraphError):
            n.add_edge(0, 1, length=value)
        assert n.num_edges == 0

    def test_default_weight_is_length(self):
        n = RoadNetwork()
        n.add_node(0, 0, 0)
        n.add_node(1, 30, 40)
        e = n.add_edge(0, 1)
        assert e.length == pytest.approx(50.0)
        assert e.weight == pytest.approx(50.0)

    def test_custom_weight_travel_time(self):
        n = RoadNetwork()
        n.add_node(0, 0, 0)
        n.add_node(1, 100, 0)
        e = n.add_edge(0, 1, weight=4.0)  # e.g. minutes, not metres
        assert e.length == pytest.approx(100.0)
        assert e.weight == 4.0

    def test_reference_node_has_smaller_id(self):
        n = RoadNetwork()
        n.add_node(3, 0, 0)
        n.add_node(1, 10, 0)
        e = n.add_edge(3, 1)
        assert e.n1 == 1 and e.n2 == 3


class TestAccessors:
    def test_unknown_lookup_raises(self, line_network):
        with pytest.raises(GraphError):
            line_network.edge(99)
        with pytest.raises(GraphError):
            line_network.neighbors(99)

    def test_adjacency_symmetric(self, paper_network):
        for node in paper_network.nodes():
            for edge_id, other, weight in paper_network.neighbors(node.node_id):
                back = paper_network.neighbors(other)
                assert any(e == edge_id for e, _o, _w in back)

    def test_edge_between(self, line_network):
        e = line_network.edge_between(0, 1)
        assert e is not None and {e.n1, e.n2} == {0, 1}
        assert line_network.edge_between(1, 0).edge_id == e.edge_id
        assert line_network.edge_between(0, 3) is None

    def test_degree(self, grid_network9):
        # Centre node of a 3x3 grid has degree 4, corners degree 2.
        assert len(grid_network9.neighbors(4)) == 4
        assert len(grid_network9.neighbors(0)) == 2

    def test_validate_passes(self, paper_network):
        validate_network(paper_network)


class TestEdgeGeometry:
    def test_center_and_mbr(self):
        n = RoadNetwork()
        n.add_node(0, 0, 0)
        n.add_node(1, 10, 20)
        e = n.add_edge(0, 1)
        assert e.center == Point(5, 10)
        assert e.mbr == MBR(0, 0, 10, 20)

    def test_point_at_fraction(self):
        n = RoadNetwork()
        n.add_node(0, 0, 0)
        n.add_node(1, 100, 0)
        e = n.add_edge(0, 1)
        assert e.point_at_fraction(0.25) == Point(25, 0)


class TestPositions:
    def test_negative_offset_rejected(self):
        with pytest.raises(GraphError):
            NetworkPosition(0, -1.0)

    def test_position_point(self, line_network):
        p = line_network.position_point(NetworkPosition(0, 50.0))
        assert p == Point(50, 0)

    def test_position_beyond_edge_rejected(self, line_network):
        with pytest.raises(GraphError):
            line_network.position_point(NetworkPosition(0, 1000.0))

    def test_node_position_roundtrip(self, paper_network):
        for node in paper_network.nodes():
            pos = paper_network.node_position(node.node_id)
            p = paper_network.position_point(pos)
            assert p.distance_to(node.point) < 1e-6
