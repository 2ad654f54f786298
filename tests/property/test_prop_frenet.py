"""Property-based tests: the exact batched Frenet kernel.

The contract pinned here (see the ``repro/road/lane.py`` module
docstring): for every centerline shape — straight, arc, and composites
chained through joints — ``to_frenet_batch`` is *bit-identical* per
element to the scalar ``to_frenet``, round-trips with ``to_world``, and
behaves as a pure elementwise map (permutation/slice invariant). A
final suite documents the numeric assumptions the kernels stand on:
numpy and ``math`` agreeing to the last bit on the shared operations.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.geometry.vec import Vec2
from repro.road.lane import (
    ArcCenterline,
    CompositeCenterline,
    FrenetPoint,
    StraightCenterline,
)

#: Hypothesis-heavy module: deselect locally with ``-m "not slow"``.
pytestmark = pytest.mark.slow

relaxed = settings(max_examples=80, deadline=None)

coordinate = st.floats(
    min_value=-500.0, max_value=500.0, allow_nan=False, allow_infinity=False
)
heading = st.floats(min_value=-math.pi, max_value=math.pi)
length = st.floats(min_value=1.0, max_value=400.0)
radius = st.floats(min_value=20.0, max_value=500.0)


def _arc_from_pose(point: Vec2, pose_heading: float, r: float,
                   arc_length: float, turn_left: bool) -> ArcCenterline:
    """The arc starting at ``point`` tangent to ``pose_heading``."""
    side = math.pi / 2.0 if turn_left else -math.pi / 2.0
    center = point + Vec2.unit(pose_heading + side) * r
    start_angle = (point - center).angle()
    return ArcCenterline(
        center=center,
        radius=r,
        start_angle=start_angle,
        arc_length=arc_length,
        turn_left=turn_left,
    )


@st.composite
def straight_centerlines(draw):
    return StraightCenterline(
        start=Vec2(draw(coordinate), draw(coordinate)),
        heading=draw(heading),
        segment_length=draw(length),
    )


@st.composite
def arc_centerlines(draw):
    r = draw(radius)
    # Keep the sweep under a half-circle so projections are unambiguous.
    arc_length = draw(
        st.floats(min_value=1.0, max_value=0.9 * math.pi * r)
    )
    return _arc_from_pose(
        Vec2(draw(coordinate), draw(coordinate)),
        draw(heading),
        r,
        arc_length,
        draw(st.booleans()),
    )


@st.composite
def composite_centerlines(draw):
    """1-4 segments chained end to end through exact joints."""
    point = Vec2(draw(coordinate), draw(coordinate))
    pose_heading = draw(heading)
    segments = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        if draw(st.booleans()):
            segment = StraightCenterline(
                start=point, heading=pose_heading, segment_length=draw(length)
            )
        else:
            r = draw(radius)
            arc_length = draw(
                st.floats(min_value=1.0, max_value=0.6 * math.pi * r)
            )
            segment = _arc_from_pose(
                point, pose_heading, r, arc_length, draw(st.booleans())
            )
        segments.append(segment)
        point = segment.point_at(segment.length)
        pose_heading = segment.heading_at(segment.length)
    return CompositeCenterline(segments)


def any_centerline():
    return st.one_of(
        straight_centerlines(), arc_centerlines(), composite_centerlines()
    )


def _arc_segments(centerline):
    if isinstance(centerline, ArcCenterline):
        return [centerline]
    if isinstance(centerline, CompositeCenterline):
        return [
            segment
            for segment in centerline._segments
            if isinstance(segment, ArcCenterline)
        ]
    return []


@st.composite
def query_points(draw, centerline):
    """Points around the centerline: on it, near joints, behind, beyond.

    Stations deliberately overshoot ``[0, length]`` so projections fall
    behind the start and beyond the end; laterals stay inside the
    smallest arc radius so Frenet points are well defined.
    """
    arcs = _arc_segments(centerline)
    max_d = min([0.4 * arc.radius for arc in arcs], default=30.0)
    s = draw(
        st.floats(min_value=-30.0, max_value=centerline.length + 30.0)
    )
    d = draw(st.floats(min_value=-max_d, max_value=max_d))
    station = min(max(s, 0.0), centerline.length)
    base = centerline.to_world(FrenetPoint(station, d))
    overshoot = s - station
    if overshoot != 0.0:
        tangent = Vec2.unit(centerline.heading_at(station))
        base = base + tangent * overshoot
    return base


@st.composite
def centerline_with_points(draw, count=6):
    centerline = draw(any_centerline())
    points = [draw(query_points(centerline)) for _ in range(count)]
    for arc in _arc_segments(centerline):
        assume(
            all(
                point.x != arc.center.x or point.y != arc.center.y
                for point in points
            )
        )
    return centerline, points


class TestBatchBitParity:
    """``to_frenet_batch`` == scalar ``to_frenet``, to the last bit."""

    @relaxed
    @given(centerline_with_points())
    def test_batch_matches_scalar_bitwise(self, case):
        centerline, points = case
        xs = np.array([p.x for p in points])
        ys = np.array([p.y for p in points])
        batch_s, batch_d = centerline.to_frenet_batch(xs, ys)
        for i, point in enumerate(points):
            scalar = centerline.to_frenet(point)
            assert scalar.s == batch_s[i], (point, scalar.s, batch_s[i])
            assert scalar.d == batch_d[i], (point, scalar.d, batch_d[i])

    @relaxed
    @given(composite_centerlines(), st.floats(-2.0, 2.0))
    def test_joint_neighbourhood_bitwise(self, centerline, wiggle):
        """Points straddling segment joints (the tie-break hot spot)."""
        joints = centerline._offsets[1:]
        if not joints:
            return
        points = []
        for joint in joints:
            station = min(max(joint + wiggle, 0.0), centerline.length)
            for lateral in (-3.0, 0.0, 3.0):
                points.append(
                    centerline.to_world(FrenetPoint(station, lateral))
                )
        xs = np.array([p.x for p in points])
        ys = np.array([p.y for p in points])
        batch_s, batch_d = centerline.to_frenet_batch(xs, ys)
        for i, point in enumerate(points):
            scalar = centerline.to_frenet(point)
            assert scalar.s == batch_s[i]
            assert scalar.d == batch_d[i]


class TestJointProjection:
    """Scalar projections around a straight→arc joint == the batch kernel.

    The scalar composite decides most arc comparisons from bounds on
    the arc's cost and computes the exact cost only where the bounds
    overlap. Points within 3 m of the joint and 8 m of the centerline,
    on both sides of the road, are where both segments compete.
    """

    @pytest.mark.parametrize("turn_left", [True, False])
    @relaxed
    @given(
        start=st.tuples(coordinate, coordinate),
        pose_heading=heading,
        straight_length=length,
        r=radius,
        offsets=st.lists(
            st.tuples(st.floats(-3.0, 3.0), st.floats(-8.0, 8.0)),
            min_size=1,
            max_size=12,
        ),
    )
    def test_joint_points_bitwise(
        self, turn_left, start, pose_heading, straight_length, r, offsets
    ):
        straight = StraightCenterline(
            start=Vec2(*start),
            heading=pose_heading,
            segment_length=straight_length,
        )
        arc = _arc_from_pose(
            straight.point_at(straight_length),
            pose_heading,
            r,
            0.5 * math.pi * r,
            turn_left,
        )
        centerline = CompositeCenterline([straight, arc])
        points = [
            centerline.to_world(FrenetPoint(straight_length + ds, d))
            for ds, d in offsets
        ]
        xs = np.array([p.x for p in points])
        ys = np.array([p.y for p in points])
        batch_s, batch_d = centerline.to_frenet_batch(xs, ys)
        for i, point in enumerate(points):
            scalar = centerline.to_frenet(point)
            assert scalar.s == batch_s[i], (point, scalar.s, batch_s[i])
            assert scalar.d == batch_d[i], (point, scalar.d, batch_d[i])


class TestRoundTrip:
    @relaxed
    @given(any_centerline(), st.data())
    def test_world_roundtrip(self, centerline, data):
        arcs = _arc_segments(centerline)
        max_d = min([0.4 * arc.radius for arc in arcs], default=30.0)
        s = data.draw(st.floats(min_value=0.0, max_value=centerline.length))
        d = data.draw(st.floats(min_value=-max_d, max_value=max_d))
        world = centerline.to_world(FrenetPoint(s, d))
        back_s, back_d = centerline.to_frenet_batch(
            np.array([world.x]), np.array([world.y])
        )
        assert math.isclose(back_s[0], s, abs_tol=1e-6)
        assert math.isclose(back_d[0], d, abs_tol=1e-6)


class TestLongArcs:
    """Arcs sweeping more than half a turn project onto their far part.

    A sweep wrapped into ``(-pi, pi]`` alone would send the far part of
    such an arc to negative stations.
    """

    @pytest.mark.parametrize("turn_left", [True, False])
    @relaxed
    @given(
        start=st.tuples(coordinate, coordinate),
        pose_heading=heading,
        r=radius,
        sweep=st.floats(min_value=1.01 * math.pi, max_value=1.99 * math.pi),
        data=st.data(),
    )
    def test_world_roundtrip(self, turn_left, start, pose_heading, r, sweep, data):
        arc = _arc_from_pose(Vec2(*start), pose_heading, r, sweep * r, turn_left)
        s = data.draw(st.floats(min_value=0.0, max_value=arc.length))
        d = data.draw(st.floats(min_value=-0.4 * r, max_value=0.4 * r))
        world = arc.to_world(FrenetPoint(s, d))
        scalar = arc.to_frenet(world)
        batch_s, batch_d = arc.to_frenet_batch(
            np.array([world.x]), np.array([world.y])
        )
        assert scalar.s == batch_s[0] and scalar.d == batch_d[0]
        assert math.isclose(scalar.s, s, abs_tol=1e-6)
        assert math.isclose(scalar.d, d, abs_tol=1e-6)

    @pytest.mark.parametrize("turn_left", [True, False])
    @relaxed
    @given(
        r=radius,
        sweep=st.floats(min_value=2.01 * math.pi, max_value=3.0 * math.pi),
        data=st.data(),
    )
    def test_overlapping_arc_keeps_its_first_turn(self, turn_left, r, sweep, data):
        # An arc of more than a full turn covers its own start; stations
        # of its first turn (e.g. a small-radius curved road's entry into
        # the curve) must not jump a turn ahead.
        arc = _arc_from_pose(Vec2(0.0, 0.0), 0.0, r, sweep * r, turn_left)
        s = data.draw(st.floats(min_value=0.0, max_value=1.99 * math.pi * r))
        world = arc.to_world(FrenetPoint(s, 0.0))
        assert math.isclose(arc.to_frenet(world).s, s, abs_tol=1e-6)


class TestElementwisePurity:
    @relaxed
    @given(centerline_with_points(), st.permutations(range(6)))
    def test_permutation_invariant(self, case, order):
        centerline, points = case
        xs = np.array([p.x for p in points])
        ys = np.array([p.y for p in points])
        base_s, base_d = centerline.to_frenet_batch(xs, ys)
        perm = np.array(order)
        perm_s, perm_d = centerline.to_frenet_batch(xs[perm], ys[perm])
        assert np.array_equal(perm_s, base_s[perm])
        assert np.array_equal(perm_d, base_d[perm])

    @relaxed
    @given(centerline_with_points(), st.integers(min_value=1, max_value=5))
    def test_slice_invariant(self, case, cut):
        centerline, points = case
        xs = np.array([p.x for p in points])
        ys = np.array([p.y for p in points])
        base_s, base_d = centerline.to_frenet_batch(xs, ys)
        head_s, head_d = centerline.to_frenet_batch(xs[:cut], ys[:cut])
        assert np.array_equal(head_s, base_s[:cut])
        assert np.array_equal(head_d, base_d[:cut])


class TestKernelAssumptions:
    """The numpy/math agreements the bit-parity contract stands on.

    The kernels restrict per-element work to multiply/add/compare,
    ``sqrt`` (correctly rounded by IEEE 754), ``fmod`` (exact) and a
    shared ``arctan2``; trigonometric constants are computed once with
    ``math`` and broadcast. These tests document — and would flag on a
    numerics change, e.g. a numpy build routing float64 trig through a
    vectorized approximation — the elementwise agreements relied on.
    """

    @relaxed
    @given(
        st.lists(
            st.floats(
                min_value=-1e6, max_value=1e6, allow_nan=False, width=64
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_sqrt_fmod_bitwise(self, values):
        arr = np.array(values)
        np_sqrt = np.sqrt(np.abs(arr))
        np_fmod = np.fmod(arr + math.pi, 2.0 * math.pi)
        for i, value in enumerate(values):
            assert np_sqrt[i] == math.sqrt(abs(value))
            assert np_fmod[i] == math.fmod(value + math.pi, 2.0 * math.pi)

    @relaxed
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_arctan2_array_matches_scalar_invocation(self, pairs):
        ys = np.array([p[0] for p in pairs])
        xs = np.array([p[1] for p in pairs])
        batch = np.arctan2(ys, xs)
        for i, (y, x) in enumerate(pairs):
            assert batch[i] == float(np.arctan2(y, x))
