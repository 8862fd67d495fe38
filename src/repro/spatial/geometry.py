"""Basic planar geometry: points, rectangles and segment helpers.

All coordinates live in a bounded 2-d space (the paper scales every
dataset to ``[0, 10000]^2``).  These primitives are deliberately small
and allocation-light because the index builders create millions of
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Tuple

__all__ = ["Point", "MBR", "project_onto_segment"]


@dataclass(frozen=True, order=True)
class Point:
    """An immutable 2-d point."""

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y


@dataclass(frozen=True)
class MBR:
    """A minimal bounding rectangle ``[xmin, xmax] x [ymin, ymax]``."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self) -> None:
        if self.xmin > self.xmax or self.ymin > self.ymax:
            raise ValueError(
                f"degenerate MBR: ({self.xmin}, {self.ymin}, "
                f"{self.xmax}, {self.ymax})"
            )

    @classmethod
    def from_points(cls, points: Iterable[Point]) -> "MBR":
        """Smallest rectangle covering ``points`` (must be non-empty)."""
        pts = list(points)
        if not pts:
            raise ValueError("cannot build an MBR from zero points")
        xs = [p.x for p in pts]
        ys = [p.y for p in pts]
        return cls(min(xs), min(ys), max(xs), max(ys))

    @property
    def center(self) -> Point:
        return Point((self.xmin + self.xmax) / 2.0, (self.ymin + self.ymax) / 2.0)

    def intersects(self, other: "MBR") -> bool:
        return not (
            other.xmin > self.xmax
            or other.xmax < self.xmin
            or other.ymin > self.ymax
            or other.ymax < self.ymin
        )

    def union(self, other: "MBR") -> "MBR":
        return MBR(
            min(self.xmin, other.xmin),
            min(self.ymin, other.ymin),
            max(self.xmax, other.xmax),
            max(self.ymax, other.ymax),
        )

    def min_distance_to_point(self, p: Point) -> float:
        """Smallest Euclidean distance from ``p`` to this rectangle."""
        dx = max(self.xmin - p.x, 0.0, p.x - self.xmax)
        dy = max(self.ymin - p.y, 0.0, p.y - self.ymax)
        return math.hypot(dx, dy)

    @classmethod
    def union_all(cls, boxes: Sequence["MBR"]) -> "MBR":
        if not boxes:
            raise ValueError("cannot union zero MBRs")
        out = boxes[0]
        for box in boxes[1:]:
            out = out.union(box)
        return out


def project_onto_segment(p: Point, a: Point, b: Point) -> Tuple[Point, float]:
    """Project ``p`` onto segment ``ab``.

    Returns ``(closest_point, t)`` where ``t in [0, 1]`` is the fractional
    position of the projection along the segment (0 at ``a``, 1 at ``b``).
    """
    abx, aby = b.x - a.x, b.y - a.y
    seg_len_sq = abx * abx + aby * aby
    if seg_len_sq == 0.0:
        return a, 0.0
    t = ((p.x - a.x) * abx + (p.y - a.y) * aby) / seg_len_sq
    t = max(0.0, min(1.0, t))
    return Point(a.x + t * abx, a.y + t * aby), t
