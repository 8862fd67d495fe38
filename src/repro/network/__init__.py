"""Road-network substrate: graph model, CCAM layout, objects, distances."""

from .ccam import CCAMStore
from .distance import (
    AdjacencyProvider,
    PairwiseDistanceComputer,
    position_distance_from_node_map,
    seed_distances,
    single_source_distances,
)
from .graph import Edge, NetworkPosition, Node, RoadNetwork
from .objects import ObjectStore, SpatioTextualObject, build_edge_rtree, snap_point_to_edge

__all__ = [
    "CCAMStore",
    "AdjacencyProvider",
    "PairwiseDistanceComputer",
    "position_distance_from_node_map",
    "seed_distances",
    "single_source_distances",
    "Edge",
    "NetworkPosition",
    "Node",
    "RoadNetwork",
    "ObjectStore",
    "SpatioTextualObject",
    "build_edge_rtree",
    "snap_point_to_edge",
]
