"""Oriented boxes: overlap and segment intersection."""

import math

import pytest

from repro.errors import GeometryError
from repro.geometry.boxes import (
    OrientedBox,
    boxes_overlap,
    segment_intersects_box,
)
from repro.geometry.vec import Vec2


def car(x: float, y: float, heading: float = 0.0) -> OrientedBox:
    return OrientedBox(Vec2(x, y), heading, length=4.8, width=1.9)


class TestConstruction:
    def test_rejects_zero_length(self):
        with pytest.raises(GeometryError):
            OrientedBox(Vec2(0, 0), 0.0, length=0.0, width=1.0)

    def test_rejects_negative_width(self):
        with pytest.raises(GeometryError):
            OrientedBox(Vec2(0, 0), 0.0, length=1.0, width=-2.0)

    def test_circumradius(self):
        box = car(0, 0)
        assert box.circumradius() == pytest.approx(math.hypot(2.4, 0.95))


class TestOverlap:
    def test_identical_overlap(self):
        assert boxes_overlap(car(0, 0), car(0, 0))

    def test_far_apart(self):
        assert not boxes_overlap(car(0, 0), car(100, 0))

    def test_longitudinal_touching(self):
        # Centres 4.7 m apart: 0.1 m of overlap bumper-to-bumper.
        assert boxes_overlap(car(0, 0), car(4.7, 0))

    def test_longitudinal_clear(self):
        assert not boxes_overlap(car(0, 0), car(4.9, 0))

    def test_lateral_adjacent_lane_clear(self):
        assert not boxes_overlap(car(0, 0), car(0, 3.5))

    def test_lateral_sideswipe(self):
        assert boxes_overlap(car(0, 0), car(0, 1.8))

    def test_rotated_cross_overlap(self):
        a = car(0, 0)
        b = car(0, 0, heading=math.pi / 2)
        assert boxes_overlap(a, b)

    def test_diagonal_near_miss_needs_sat(self):
        # Two boxes at 45 degrees whose bounding circles overlap but the
        # rectangles do not — the case the SAT axes must resolve.
        a = OrientedBox(Vec2(0, 0), 0.0, 4.0, 1.0)
        b = OrientedBox(Vec2(3.5, 2.1), math.pi / 4, 4.0, 1.0)
        assert a.circumradius() + b.circumradius() > a.center.distance_to(b.center)
        assert not boxes_overlap(a, b)

    def test_symmetric(self):
        a, b = car(0, 0), car(4.0, 1.0)
        assert boxes_overlap(a, b) == boxes_overlap(b, a)


class TestSegmentIntersection:
    def test_segment_through_box(self):
        assert segment_intersects_box(Vec2(-10, 0), Vec2(10, 0), car(0, 0))

    def test_segment_missing_box(self):
        assert not segment_intersects_box(Vec2(-10, 5), Vec2(10, 5), car(0, 0))

    def test_segment_ending_before_box(self):
        assert not segment_intersects_box(Vec2(-10, 0), Vec2(-3, 0), car(0, 0))

    def test_segment_starting_inside(self):
        assert segment_intersects_box(Vec2(0, 0), Vec2(10, 0), car(0, 0))

    def test_segment_parallel_outside_slab(self):
        assert not segment_intersects_box(Vec2(-10, 1.2), Vec2(10, 1.2), car(0, 0))

    def test_rotated_box_intersection(self):
        box = car(5, 0, heading=math.pi / 4)
        assert segment_intersects_box(Vec2(0, 0), Vec2(10, 0), box)

    def test_degenerate_point_segment_inside(self):
        assert segment_intersects_box(Vec2(0, 0), Vec2(0, 0), car(0, 0))

    def test_degenerate_point_segment_outside(self):
        assert not segment_intersects_box(Vec2(9, 9), Vec2(9, 9), car(0, 0))
