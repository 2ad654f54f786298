"""Clamped constant-acceleration closed forms."""

import pytest

from repro.dynamics.longitudinal import (
    braking_distance,
    clamp,
    time_to_stop,
    travel,
)


class TestTravel:
    def test_constant_speed(self):
        assert travel(10.0, 0.0, 5.0) == (50.0, 10.0)

    def test_zero_duration(self):
        assert travel(10.0, -3.0, 0.0) == (0.0, 10.0)

    def test_accelerating(self):
        distance, speed = travel(10.0, 2.0, 3.0)
        assert distance == pytest.approx(10 * 3 + 0.5 * 2 * 9)
        assert speed == pytest.approx(16.0)

    def test_braking_without_stopping(self):
        distance, speed = travel(10.0, -2.0, 3.0)
        assert distance == pytest.approx(30 - 9)
        assert speed == pytest.approx(4.0)

    def test_braking_clamps_at_zero(self):
        distance, speed = travel(10.0, -2.0, 10.0)
        assert speed == 0.0
        assert distance == pytest.approx(braking_distance(10.0, 2.0))

    def test_no_reverse_after_stop(self):
        distance_short, _ = travel(10.0, -5.0, 2.0)
        distance_long, _ = travel(10.0, -5.0, 100.0)
        assert distance_long == pytest.approx(distance_short)

    def test_speed_cap_binds(self):
        distance, speed = travel(10.0, 2.0, 10.0, max_speed=14.0)
        assert speed == 14.0
        # 2 s to reach the cap (24 m), then 8 s at 14 m/s.
        assert distance == pytest.approx(24.0 + 112.0)

    def test_speed_cap_already_reached(self):
        distance, speed = travel(20.0, 2.0, 5.0, max_speed=20.0)
        assert speed == 20.0
        assert distance == pytest.approx(100.0)

    def test_rejects_negative_speed(self):
        with pytest.raises(ValueError):
            travel(-1.0, 0.0, 1.0)

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            travel(1.0, 0.0, -1.0)


class TestStopping:
    def test_braking_distance(self):
        assert braking_distance(20.0, 5.0) == pytest.approx(40.0)

    def test_time_to_stop(self):
        assert time_to_stop(20.0, 5.0) == pytest.approx(4.0)

    def test_consistency_with_travel(self):
        t = time_to_stop(17.0, 4.9)
        distance, speed = travel(17.0, -4.9, t)
        assert speed == pytest.approx(0.0, abs=1e-9)
        assert distance == pytest.approx(braking_distance(17.0, 4.9))

    def test_rejects_non_positive_decel(self):
        with pytest.raises(ValueError):
            braking_distance(10.0, 0.0)
        with pytest.raises(ValueError):
            time_to_stop(10.0, -1.0)


class TestClamp:
    def test_inside(self):
        assert clamp(5.0, 0.0, 10.0) == 5.0

    def test_edges(self):
        assert clamp(-1.0, 0.0, 10.0) == 0.0
        assert clamp(11.0, 0.0, 10.0) == 10.0

    def test_empty_interval_raises(self):
        with pytest.raises(ValueError):
            clamp(0.0, 1.0, -1.0)


class TestTravelArrays:
    def test_matches_scalar_branches(self):
        import numpy as np

        from repro.dynamics.longitudinal import travel_arrays

        cases = [
            (10.0, 0.0, 2.0, None),   # coast
            (10.0, -5.0, 5.0, None),  # brakes to a stop
            (10.0, -1.0, 2.0, None),  # braking, still moving
            (10.0, 4.0, 10.0, 12.0),  # accelerates into the cap
            (15.0, 4.0, 3.0, 12.0),   # already over the cap
            (10.0, 2.0, 3.0, None),   # uncapped acceleration
            (0.0, -3.0, 1.0, None),   # stopped stays stopped
            (10.0, 3.0, 0.0, 12.0),   # zero duration
        ]
        for v0, a, t, cap in cases:
            d_ref, v_ref = travel(v0, a, t, cap)
            d, v = travel_arrays(
                np.array([v0]), np.array([a]), np.array([t]), cap
            )
            assert v[0] == v_ref, (v0, a, t, cap)
            assert d[0] == pytest.approx(d_ref, rel=1e-12), (v0, a, t, cap)

    def test_rejects_negative_inputs(self):
        import numpy as np

        from repro.dynamics.longitudinal import travel_arrays

        with pytest.raises(ValueError):
            travel_arrays(np.array([-1.0]), np.array([0.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            travel_arrays(np.array([1.0]), np.array([0.0]), np.array([-1.0]))
