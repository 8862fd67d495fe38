"""Spatial primitives: geometry, space-filling curves and spatial trees."""

from .geometry import MBR, Point, project_onto_segment
from .kdtree import KDNode, KDTreePartition
from .rtree import RTree, RTreeEntry
from .zorder import ZOrderCurve, interleave_bits

__all__ = [
    "MBR",
    "Point",
    "project_onto_segment",
    "KDNode",
    "KDTreePartition",
    "RTree",
    "RTreeEntry",
    "ZOrderCurve",
    "interleave_bits",
]
