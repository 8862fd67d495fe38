"""Tests for the CCAM disk layout."""

import pytest

from repro.datasets.synthetic import grid_network
from repro.errors import GraphError
from repro.network.ccam import CCAMStore
from repro.network.distance import single_source_distances
from repro.storage.pagefile import DiskManager


@pytest.fixture()
def ccam_setup():
    network = grid_network(12, 12, seed=3)
    disk = DiskManager(buffer_pages=4)
    ccam = CCAMStore(network, disk)
    return network, disk, ccam


class TestLayout:
    def test_every_node_is_mapped(self, ccam_setup):
        network, _disk, ccam = ccam_setup
        for node in network.nodes():
            assert ccam._node_page[node.node_id] >= 0

    def test_adjacency_matches_in_memory(self, ccam_setup):
        network, _disk, ccam = ccam_setup
        for node in network.nodes():
            expected = sorted(network.neighbors(node.node_id))
            got = sorted(ccam.neighbors(node.node_id))
            assert got == expected

    def test_unknown_node_raises(self, ccam_setup):
        _network, _disk, ccam = ccam_setup
        with pytest.raises(GraphError):
            ccam.neighbors(10_000)

    def test_multiple_nodes_per_page(self, ccam_setup):
        network, _disk, ccam = ccam_setup
        # 144 nodes with small adjacency lists fit in far fewer pages.
        assert ccam.num_pages < network.num_nodes / 10

    def test_spatial_locality_of_pages(self, ccam_setup):
        """Z-order clustering: neighbours often share a page."""
        network, _disk, ccam = ccam_setup
        same_page = total = 0
        for edge in network.edges():
            total += 1
            if ccam._node_page[edge.n1] == ccam._node_page[edge.n2]:
                same_page += 1
        # A random assignment over ~10 pages would co-locate ~10 %.
        assert same_page / total > 0.25


class TestIOCharging:
    def test_neighbor_access_charges_reads(self, ccam_setup):
        _network, disk, ccam = ccam_setup
        disk.stats.reset()
        ccam.neighbors(0)
        assert disk.stats.logical_reads == 1

    def test_buffered_second_access(self, ccam_setup):
        _network, disk, ccam = ccam_setup
        ccam.neighbors(0)
        disk.stats.reset()
        ccam.neighbors(0)
        assert disk.stats.buffer_hits == 1
        assert disk.stats.physical_reads == 0

    def test_dijkstra_through_ccam_charges_io(self, ccam_setup):
        network, disk, ccam = ccam_setup
        disk.stats.reset()
        pos = network.node_position(0)
        dist_io = single_source_distances(ccam, network, pos)
        assert disk.stats.logical_reads > 0
        # Same result as the uncharged in-memory traversal.
        dist_mem = single_source_distances(network, network, pos)
        assert dist_io == dist_mem

    def test_locality_yields_buffer_hits(self, ccam_setup):
        network, disk, ccam = ccam_setup
        disk.stats.reset()
        single_source_distances(ccam, network, network.node_position(0))
        assert disk.stats.buffer_hits > disk.stats.physical_reads
