"""Unit conversions and angle wrapping."""

import math

import pytest

from repro import units


class TestSpeedConversions:
    def test_60_mph_is_26_82_mps(self):
        assert units.mph_to_mps(60.0) == pytest.approx(26.8224)

    def test_zero_speed(self):
        assert units.mph_to_mps(0.0) == 0.0


class TestTimeConversions:
    def test_seconds_to_ms_rounds(self):
        assert units.seconds_to_ms(1.2345) == 1234
        assert units.seconds_to_ms(1.2355) == 1236


class TestAngles:
    def test_wrap_identity_in_range(self):
        assert units.wrap_angle(1.0) == pytest.approx(1.0)
        assert units.wrap_angle(-1.0) == pytest.approx(-1.0)

    def test_wrap_above_pi(self):
        assert units.wrap_angle(math.pi + 0.1) == pytest.approx(-math.pi + 0.1)

    def test_wrap_below_minus_pi(self):
        assert units.wrap_angle(-math.pi - 0.1) == pytest.approx(math.pi - 0.1)

    def test_wrap_pi_maps_to_pi(self):
        assert units.wrap_angle(math.pi) == pytest.approx(math.pi)

    def test_wrap_many_turns(self):
        assert units.wrap_angle(7.0 * math.pi) == pytest.approx(math.pi)

    def test_wrap_zero(self):
        assert units.wrap_angle(0.0) == 0.0


class TestTimeGridCount:
    def test_exact_multiple_includes_endpoint(self):
        assert units.time_grid_count(8.0, 0.25) == 33

    def test_near_multiple_below_excludes_endpoint(self):
        assert units.time_grid_count(1.0 - 5e-10, 0.25) == 4

    def test_zero_span_is_one_sample(self):
        assert units.time_grid_count(0.0, 0.1) == 1

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            units.time_grid_count(1.0, 0.0)
        with pytest.raises(ValueError):
            units.time_grid_count(-1.0, 0.1)
