"""Vec2 value-type behaviour."""

import math

import pytest

from repro.geometry.vec import Vec2


class TestArithmetic:
    def test_add(self):
        assert Vec2(1, 2) + Vec2(3, 4) == Vec2(4, 6)

    def test_sub(self):
        assert Vec2(5, 5) - Vec2(2, 3) == Vec2(3, 2)

    def test_scalar_multiply_both_sides(self):
        assert Vec2(1, -2) * 3 == Vec2(3, -6)
        assert 3 * Vec2(1, -2) == Vec2(3, -6)

    def test_divide(self):
        assert Vec2(4, 6) / 2 == Vec2(2, 3)

    def test_negate(self):
        assert -Vec2(1, -2) == Vec2(-1, 2)


class TestProducts:
    def test_dot_orthogonal(self):
        assert Vec2(1, 0).dot(Vec2(0, 5)) == 0.0

    def test_dot_parallel(self):
        assert Vec2(2, 0).dot(Vec2(3, 0)) == 6.0

    def test_cross_sign(self):
        assert Vec2(1, 0).cross(Vec2(0, 1)) == 1.0
        assert Vec2(0, 1).cross(Vec2(1, 0)) == -1.0


class TestNorms:
    def test_norm_345(self):
        assert Vec2(3, 4).norm() == pytest.approx(5.0)

    def test_norm_sq(self):
        assert Vec2(3, 4).norm_sq() == pytest.approx(25.0)

    def test_distance(self):
        assert Vec2(1, 1).distance_to(Vec2(4, 5)) == pytest.approx(5.0)

    def test_normalized_unit_length(self):
        assert Vec2(10, -10).normalized().norm() == pytest.approx(1.0)

    def test_normalized_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            Vec2(0, 0).normalized()


class TestRotations:
    def test_perp_is_ccw(self):
        assert Vec2(1, 0).perp() == Vec2(0, 1)

    def test_rotate_quarter_turn(self):
        rotated = Vec2(1, 0).rotated(math.pi / 2)
        assert rotated.x == pytest.approx(0.0, abs=1e-12)
        assert rotated.y == pytest.approx(1.0)

    def test_angle(self):
        assert Vec2(0, 2).angle() == pytest.approx(math.pi / 2)

    def test_unit_matches_angle(self):
        v = Vec2.unit(0.7)
        assert v.angle() == pytest.approx(0.7)
        assert v.norm() == pytest.approx(1.0)

    def test_from_polar(self):
        v = Vec2.from_polar(2.0, math.pi)
        assert v.x == pytest.approx(-2.0)
        assert v.y == pytest.approx(0.0, abs=1e-12)


class TestMisc:
    def test_lerp_midpoint(self):
        assert Vec2(0, 0).lerp(Vec2(2, 4), 0.5) == Vec2(1, 2)

    def test_lerp_endpoints(self):
        a, b = Vec2(1, 1), Vec2(5, 9)
        assert a.lerp(b, 0.0) == a
        assert a.lerp(b, 1.0) == b

    def test_hashable(self):
        assert len({Vec2(1, 2), Vec2(1, 2), Vec2(3, 4)}) == 2
