"""SE(2) frame transforms."""

import math

import pytest

from repro.geometry.transforms import Frame2
from repro.geometry.vec import Vec2


class TestRoundTrip:
    def test_local_world_inverse(self):
        frame = Frame2(Vec2(3, -2), 0.8)
        p = Vec2(7.5, 1.25)
        assert frame.to_world(frame.to_local(p)).distance_to(p) < 1e-12

    def test_world_local_inverse(self):
        frame = Frame2(Vec2(-1, 4), -2.1)
        p = Vec2(0.5, 0.5)
        assert frame.to_local(frame.to_world(p)).distance_to(p) < 1e-12


class TestSemantics:
    def test_identity_is_noop(self):
        frame = Frame2.identity()
        assert frame.to_local(Vec2(3, 4)) == Vec2(3, 4)

    def test_point_ahead_has_positive_local_x(self):
        frame = Frame2(Vec2(0, 0), math.pi / 2)  # facing +Y
        local = frame.to_local(Vec2(0, 10))
        assert local.x == pytest.approx(10.0)
        assert local.y == pytest.approx(0.0, abs=1e-12)


class TestCompose:
    def test_compose_translation(self):
        body = Frame2(Vec2(10, 0), 0.0)
        camera = Frame2(Vec2(1.5, 0), 0.0)
        mounted = body.compose(camera)
        assert mounted.origin == Vec2(11.5, 0)
        assert mounted.heading == pytest.approx(0.0)

    def test_compose_rotation(self):
        body = Frame2(Vec2(0, 0), math.pi / 2)
        camera = Frame2(Vec2(1, 0), math.pi / 2)  # mounted sideways
        mounted = body.compose(camera)
        assert mounted.origin.x == pytest.approx(0.0, abs=1e-12)
        assert mounted.origin.y == pytest.approx(1.0)
        assert abs(mounted.heading) == pytest.approx(math.pi)

    def test_compose_matches_sequential_transform(self):
        body = Frame2(Vec2(5, -3), 0.7)
        child = Frame2(Vec2(2, 1), -0.3)
        mounted = body.compose(child)
        p = Vec2(0.4, 0.9)
        direct = mounted.to_world(p)
        sequential = body.to_world(child.to_world(p))
        assert direct.distance_to(sequential) < 1e-12
