"""Property-based tests: geometry invariants."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.boxes import OrientedBox, boxes_overlap
from repro.geometry.transforms import Frame2
from repro.geometry.vec import Vec2
from repro.road.lane import ArcCenterline, FrenetPoint, StraightCenterline

finite = st.floats(
    min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False
)
angle = st.floats(min_value=-math.pi, max_value=math.pi)
positive = st.floats(min_value=0.5, max_value=100.0)


@st.composite
def vectors(draw):
    return Vec2(draw(finite), draw(finite))


@st.composite
def frames(draw):
    return Frame2(draw(vectors()), draw(angle))


@st.composite
def boxes(draw):
    return OrientedBox(
        center=Vec2(
            draw(st.floats(min_value=-50, max_value=50)),
            draw(st.floats(min_value=-50, max_value=50)),
        ),
        heading=draw(angle),
        length=draw(positive),
        width=draw(positive),
    )


class TestVecProperties:
    @given(vectors())
    def test_rotation_preserves_norm(self, v):
        rotated = v.rotated(1.2345)
        assert math.isclose(rotated.norm(), v.norm(), abs_tol=1e-6)

    @given(vectors(), angle)
    def test_rotate_inverse(self, v, a):
        back = v.rotated(a).rotated(-a)
        assert back.distance_to(v) < 1e-6

    @given(vectors(), vectors())
    def test_triangle_inequality(self, a, b):
        assert (a + b).norm() <= a.norm() + b.norm() + 1e-9

    @given(vectors())
    def test_perp_is_orthogonal(self, v):
        assert abs(v.dot(v.perp())) < 1e-6


class TestFrameProperties:
    @given(frames(), vectors())
    def test_round_trip(self, frame, p):
        assert frame.to_world(frame.to_local(p)).distance_to(p) < 1e-6

    @given(frames(), vectors(), vectors())
    def test_transform_preserves_distance(self, frame, a, b):
        la, lb = frame.to_local(a), frame.to_local(b)
        assert math.isclose(
            la.distance_to(lb), a.distance_to(b), rel_tol=1e-9, abs_tol=1e-6
        )


class TestBoxProperties:
    @given(boxes(), boxes())
    def test_overlap_symmetric(self, a, b):
        assert boxes_overlap(a, b) == boxes_overlap(b, a)

    @given(boxes())
    def test_box_overlaps_itself(self, box):
        assert boxes_overlap(box, box)

    @given(boxes(), st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0))
    def test_far_translation_never_overlaps(self, box, fx, fy):
        diameter = 2.0 * box.circumradius() + 1.0
        shifted = OrientedBox(
            center=box.center + Vec2(diameter * (1 + fx), diameter * (1 + fy)),
            heading=box.heading,
            length=box.length,
            width=box.width,
        )
        assert not boxes_overlap(box, shifted)


class TestFrenetProperties:
    @given(
        st.floats(min_value=0.0, max_value=999.0),
        st.floats(min_value=-5.0, max_value=5.0),
        angle,
    )
    def test_straight_round_trip(self, s, d, heading):
        line = StraightCenterline(Vec2(3, -7), heading, 1000.0)
        back = line.to_frenet(line.to_world(FrenetPoint(s, d)))
        assert math.isclose(back.s, s, abs_tol=1e-6)
        assert math.isclose(back.d, d, abs_tol=1e-6)

    @settings(max_examples=50)
    @given(
        st.floats(min_value=0.0, max_value=300.0),
        st.floats(min_value=-5.0, max_value=5.0),
        st.booleans(),
    )
    def test_arc_round_trip(self, s, d, turn_left):
        center = Vec2(0, 200) if turn_left else Vec2(0, -200)
        start = -math.pi / 2 if turn_left else math.pi / 2
        arc = ArcCenterline(center, 200.0, start, 310.0, turn_left)
        back = arc.to_frenet(arc.to_world(FrenetPoint(s, d)))
        assert math.isclose(back.s, s, abs_tol=1e-6)
        assert math.isclose(back.d, d, abs_tol=1e-6)

    @settings(max_examples=50)
    @given(st.floats(min_value=0.0, max_value=300.0))
    def test_arc_station_spacing_is_arc_length(self, s):
        arc = ArcCenterline(Vec2(0, 200), 200.0, -math.pi / 2, 310.0, True)
        step = 0.01
        a = arc.point_at(s)
        b = arc.point_at(min(s + step, arc.length))
        chord = a.distance_to(b)
        assert chord <= step + 1e-9
        assert chord >= step * 0.999 or s + step > arc.length
