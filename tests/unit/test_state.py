"""Vehicle states and trajectories."""

import math

import numpy as np
import pytest

from repro.dynamics.state import (
    StateTrajectory,
    TimedState,
    VehicleSpec,
    VehicleState,
)
from repro.errors import ConfigurationError, SimulationError
from repro.geometry.vec import Vec2


def state(x: float, y: float = 0.0, heading: float = 0.0,
          speed: float = 10.0, accel: float = 0.0) -> VehicleState:
    return VehicleState(Vec2(x, y), heading, speed, accel)


class TestVehicleSpec:
    def test_defaults_consistent(self):
        spec = VehicleSpec()
        assert 0 < spec.wheelbase <= spec.length

    def test_rejects_negative_speed_limit(self):
        with pytest.raises(ConfigurationError):
            VehicleSpec(max_speed=-1.0)

    def test_rejects_wheelbase_longer_than_body(self):
        with pytest.raises(ConfigurationError):
            VehicleSpec(length=4.0, wheelbase=4.5)

    def test_rejects_zero_decel(self):
        with pytest.raises(ConfigurationError):
            VehicleSpec(max_decel=0.0)


class TestVehicleState:
    def test_rejects_negative_speed(self):
        with pytest.raises(SimulationError):
            state(0.0, speed=-1.0)

    def test_velocity_along_heading(self):
        s = state(0, heading=math.pi / 2, speed=5.0)
        v = s.velocity()
        assert v.x == pytest.approx(0.0, abs=1e-12)
        assert v.y == pytest.approx(5.0)

    def test_footprint_dimensions(self):
        spec = VehicleSpec(length=4.8, width=1.9)
        box = state(10, 5).footprint(spec)
        assert box.length == 4.8
        assert box.width == 1.9
        assert box.center == Vec2(10, 5)


class TestStateTrajectory:
    def _trajectory(self) -> StateTrajectory:
        return StateTrajectory(
            [
                TimedState(0.0, state(0.0, speed=10.0)),
                TimedState(1.0, state(10.0, speed=10.0)),
                TimedState(2.0, state(20.0, speed=12.0)),
            ]
        )

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            StateTrajectory([])

    def test_rejects_duplicate_times(self):
        with pytest.raises(ConfigurationError):
            StateTrajectory(
                [TimedState(0.0, state(0)), TimedState(0.0, state(1))]
            )

    def test_sorts_by_time(self):
        trajectory = StateTrajectory(
            [TimedState(1.0, state(10)), TimedState(0.0, state(0))]
        )
        assert trajectory.start_time == 0.0
        assert trajectory.state_at(0.0).position.x == 0.0

    def test_interpolates_position(self):
        trajectory = self._trajectory()
        assert trajectory.state_at(0.5).position.x == pytest.approx(5.0)

    def test_interpolates_speed(self):
        trajectory = self._trajectory()
        assert trajectory.state_at(1.5).speed == pytest.approx(11.0)

    def test_clamps_before_start(self):
        assert self._trajectory().state_at(-5.0).position.x == 0.0

    def test_clamps_after_end(self):
        assert self._trajectory().state_at(10.0).position.x == 20.0

    def test_duration(self):
        assert self._trajectory().duration == pytest.approx(2.0)

    def test_shifted(self):
        shifted = self._trajectory().shifted(5.0)
        assert shifted.start_time == 5.0
        assert shifted.state_at(5.5).position.x == pytest.approx(5.0)


class TestExtrapolation:
    def _trajectory(self) -> StateTrajectory:
        return StateTrajectory(
            [
                TimedState(0.0, state(0.0, speed=10.0)),
                TimedState(1.0, state(10.0, speed=10.0)),
            ]
        )

    def test_extrapolated_state_coasts(self):
        extrapolated = self._trajectory().extrapolated_state_at(3.0)
        assert extrapolated.position.x == pytest.approx(30.0)
        assert extrapolated.speed == pytest.approx(10.0)
        assert extrapolated.accel == 0.0

    def test_extrapolated_matches_interp_inside(self):
        trajectory = self._trajectory()
        inside = trajectory.extrapolated_state_at(0.5)
        assert inside.position.x == pytest.approx(5.0)

    def test_stopped_final_state_stays_put(self):
        trajectory = StateTrajectory(
            [
                TimedState(0.0, state(0.0, speed=5.0)),
                TimedState(1.0, state(3.0, speed=0.0)),
            ]
        )
        assert trajectory.extrapolated_state_at(100.0).position.x == (
            pytest.approx(3.0)
        )

    def test_vectorized_sampling_matches_scalar(self):
        trajectory = self._trajectory()
        times = np.array([0.0, 0.25, 0.9, 1.0, 2.0, 5.0])
        xs, ys, speeds = trajectory.sample_extrapolated(times)
        for i, t in enumerate(times):
            expected = trajectory.extrapolated_state_at(float(t))
            assert xs[i] == pytest.approx(expected.position.x)
            assert ys[i] == pytest.approx(expected.position.y)
            assert speeds[i] == pytest.approx(expected.speed)


class TestRolloutArrays:
    def test_rejects_non_grid_times(self):
        import numpy as np

        from repro.dynamics.state import RolloutArrays
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            RolloutArrays(
                times=np.zeros(3),
                xs=np.zeros(3),
                ys=np.zeros(3),
                speeds=np.zeros(3),
                end_vx=np.zeros(1),
                end_vy=np.zeros(1),
            )

    def test_take_selects_rows(self):
        import numpy as np

        from repro.dynamics.state import RolloutArrays

        rollout = RolloutArrays(
            times=np.array([[0.0, 1.0], [0.5, 1.5], [1.0, 2.0]]),
            xs=np.arange(6.0).reshape(3, 2),
            ys=np.arange(6.0).reshape(3, 2) + 10.0,
            speeds=np.ones((3, 2)),
            end_vx=np.array([1.0, 2.0, 3.0]),
            end_vy=np.zeros(3),
        )
        sub = rollout.take(np.array([2, 0]))
        assert sub.rows == 2
        assert sub.times[0, 0] == 1.0
        assert sub.end_vx.tolist() == [3.0, 1.0]

    def test_knot_arrays_round_trip(self):
        import numpy as np

        trajectory = StateTrajectory(
            [
                TimedState(0.0, VehicleState(Vec2(0.0, 0.0), 0.0, 5.0)),
                TimedState(1.0, VehicleState(Vec2(5.0, 0.0), 0.0, 5.0)),
            ]
        )
        t, x, y, v, end_velocity = trajectory.knot_arrays()
        assert t.tolist() == [0.0, 1.0]
        assert x.tolist() == [0.0, 5.0]
        assert v.tolist() == [5.0, 5.0]
        assert end_velocity[0] == pytest.approx(5.0)
        assert end_velocity[1] == pytest.approx(0.0)
