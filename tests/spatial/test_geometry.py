"""Tests for repro.spatial.geometry."""


import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.spatial.geometry import MBR, Point, project_onto_segment

coords = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False)


class TestPoint:
    def test_distance_is_euclidean(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == 5.0

    def test_distance_to_self_is_zero(self):
        p = Point(2.5, -7.0)
        assert p.distance_to(p) == 0.0

    def test_as_tuple_and_iter(self):
        p = Point(1.0, 2.0)
        assert tuple(p) == (1.0, 2.0)

    def test_points_are_hashable_and_equal_by_value(self):
        assert Point(1, 2) == Point(1, 2)
        assert len({Point(1, 2), Point(1, 2)}) == 1

    @given(coords, coords, coords, coords)
    def test_distance_symmetry(self, x1, y1, x2, y2):
        a, b = Point(x1, y1), Point(x2, y2)
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))

    @given(coords, coords, coords, coords, coords, coords)
    def test_triangle_inequality(self, x1, y1, x2, y2, x3, y3):
        a, b, c = Point(x1, y1), Point(x2, y2), Point(x3, y3)
        assert a.distance_to(c) <= a.distance_to(b) + b.distance_to(c) + 1e-6


class TestMBR:
    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            MBR(1, 0, 0, 1)

    def test_point_mbr_is_valid(self):
        box = MBR(5, 5, 5, 5)
        assert box.area == 0.0
        assert box.center == Point(5, 5)

    def test_from_points(self):
        box = MBR.from_points([Point(0, 1), Point(2, -1), Point(1, 0)])
        assert (box.xmin, box.ymin, box.xmax, box.ymax) == (0, -1, 2, 1)

    def test_from_points_empty_raises(self):
        with pytest.raises(ValueError):
            MBR.from_points([])

    def test_center_and_dims(self):
        box = MBR(0, 0, 4, 2)
        assert box.center == Point(2, 1)
        assert box.area == 8

    def test_intersects_touching_edges(self):
        a = MBR(0, 0, 1, 1)
        b = MBR(1, 1, 2, 2)
        assert a.intersects(b)
        assert b.intersects(a)

    def test_disjoint(self):
        a = MBR(0, 0, 1, 1)
        b = MBR(2, 2, 3, 3)
        assert not a.intersects(b)

    def test_contains(self):
        """A box contains another when their union is the box itself."""
        outer = MBR(0, 0, 10, 10)
        inner = MBR(2, 2, 5, 5)
        assert outer.union(inner) == outer
        assert inner.union(outer) != inner

    def test_union(self):
        a = MBR(0, 0, 1, 1)
        b = MBR(2, 2, 3, 3)
        assert a.union(b) == MBR(0, 0, 3, 3)

    def test_enlargement_zero_when_contained(self):
        outer = MBR(0, 0, 10, 10)
        inner = MBR(2, 2, 5, 5)
        assert outer.enlargement(inner) == 0.0
        assert inner.enlargement(outer) == pytest.approx(100 - 9)

    def test_min_distance_inside_is_zero(self):
        box = MBR(0, 0, 10, 10)
        assert box.min_distance_to_point(Point(5, 5)) == 0.0

    def test_min_distance_outside(self):
        box = MBR(0, 0, 10, 10)
        assert box.min_distance_to_point(Point(13, 14)) == pytest.approx(5.0)

    def test_union_all(self):
        boxes = [MBR(i, i, i + 1, i + 1) for i in range(3)]
        u = MBR.union_all(boxes)
        assert (u.xmin, u.ymin, u.xmax, u.ymax) == (0, 0, 3, 3)

    def test_union_all_empty_raises(self):
        with pytest.raises(ValueError):
            MBR.union_all([])

    @given(coords, coords, coords, coords, coords, coords)
    def test_union_covers_both(self, x1, y1, x2, y2, x3, y3):
        a = MBR(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))
        b = MBR(min(x2, x3), min(y2, y3), max(x2, x3), max(y2, y3))
        u = a.union(b)
        assert u.union(a) == u and u.union(b) == u


def point_segment_distance(p, a, b):
    closest, _t = project_onto_segment(p, a, b)
    return p.distance_to(closest)


class TestSegmentProjection:
    def test_projection_inside(self):
        p, t = project_onto_segment(Point(5, 3), Point(0, 0), Point(10, 0))
        assert p == Point(5, 0)
        assert t == pytest.approx(0.5)

    def test_projection_clamps_to_endpoints(self):
        p, t = project_onto_segment(Point(-4, 2), Point(0, 0), Point(10, 0))
        assert p == Point(0, 0)
        assert t == 0.0
        p, t = project_onto_segment(Point(40, 2), Point(0, 0), Point(10, 0))
        assert p == Point(10, 0)
        assert t == 1.0

    def test_degenerate_segment(self):
        p, t = project_onto_segment(Point(3, 4), Point(1, 1), Point(1, 1))
        assert p == Point(1, 1)
        assert t == 0.0

    def test_point_segment_distance(self):
        assert point_segment_distance(Point(5, 3), Point(0, 0), Point(10, 0)) == 3.0
        assert point_segment_distance(Point(-3, 4), Point(0, 0), Point(10, 0)) == 5.0

    @given(coords, coords, coords, coords, coords, coords)
    def test_distance_never_exceeds_endpoint_distances(self, px, py, ax, ay, bx, by):
        p, a, b = Point(px, py), Point(ax, ay), Point(bx, by)
        d = point_segment_distance(p, a, b)
        assert d <= p.distance_to(a) + 1e-6
        assert d <= p.distance_to(b) + 1e-6
