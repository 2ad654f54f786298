"""Lane-keeping steering."""

import pytest

from repro.dynamics.bicycle import KinematicBicycle
from repro.dynamics.state import VehicleSpec, VehicleState
from repro.errors import ConfigurationError
from repro.geometry.vec import Vec2
from repro.planning.lateral import LaneKeeper
from repro.road.track import three_lane_curved_road, three_lane_straight_road


SPEC = VehicleSpec()


class TestStraightRoad:
    def setup_method(self):
        self.road = three_lane_straight_road()
        self.keeper = LaneKeeper(road=self.road, target_lane=1)

    def test_centered_no_steer(self):
        state = VehicleState(Vec2(100, 0), 0.0, 20.0, 0.0)
        assert self.keeper.steer(state, SPEC) == pytest.approx(0.0, abs=1e-6)

    def test_offset_right_steers_left(self):
        state = VehicleState(Vec2(100, -1.0), 0.0, 20.0, 0.0)
        assert self.keeper.steer(state, SPEC) > 0.0

    def test_offset_left_steers_right(self):
        state = VehicleState(Vec2(100, 1.0), 0.0, 20.0, 0.0)
        assert self.keeper.steer(state, SPEC) < 0.0

    def test_converges_to_lane_center(self):
        bike = KinematicBicycle(SPEC)
        state = VehicleState(Vec2(100, -1.5), 0.0, 20.0, 0.0)
        for _ in range(600):
            steer = self.keeper.steer(state, SPEC)
            state = bike.step(state, 0.0, steer, 0.01)
        assert abs(state.position.y) < 0.1

    def test_invalid_lane_rejected(self):
        with pytest.raises(ConfigurationError):
            LaneKeeper(road=self.road, target_lane=7)


class TestCurvedRoad:
    def test_holds_lane_through_curve(self):
        road = three_lane_curved_road(
            entry_length=100.0, radius=300.0, arc_length=600.0
        )
        keeper = LaneKeeper(road=road, target_lane=1)
        bike = KinematicBicycle(SPEC)
        state = VehicleState(
            road.lane_center(1, 20.0), road.heading_at(20.0), 20.0, 0.0
        )
        max_offset = 0.0
        for _ in range(2500):
            steer = keeper.steer(state, SPEC)
            state = bike.step(state, 0.0, steer, 0.01)
            offset = abs(road.to_frenet(state.position).d)
            max_offset = max(max_offset, offset)
        assert max_offset < 0.6
