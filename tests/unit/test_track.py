"""Multi-lane road layout."""

import pytest

from repro.errors import ConfigurationError
from repro.geometry.vec import Vec2
from repro.road.lane import FrenetPoint
from repro.road.track import (
    Road,
    three_lane_curved_road,
    three_lane_straight_road,
)


class TestLaneLayout:
    def setup_method(self):
        self.road = three_lane_straight_road(length=1000.0)

    def test_three_lanes(self):
        assert self.road.lane_count == 3
        assert self.road.width == pytest.approx(10.5)

    def test_lane_offsets_ordered_right_to_left(self):
        offsets = [self.road.lane_offset(i) for i in range(3)]
        assert offsets == sorted(offsets)
        assert offsets[1] == pytest.approx(0.0)
        assert offsets[0] == pytest.approx(-3.5)
        assert offsets[2] == pytest.approx(3.5)

    def test_invalid_lane_raises(self):
        with pytest.raises(ConfigurationError):
            self.road.lane_offset(3)
        with pytest.raises(ConfigurationError):
            self.road.lane_offset(-1)

    def test_lane_of_offset_round_trip(self):
        for lane in range(3):
            assert self.road.lane_of_offset(self.road.lane_offset(lane)) == lane

    def test_lane_of_offset_clamps(self):
        assert self.road.lane_of_offset(-100.0) == 0
        assert self.road.lane_of_offset(100.0) == 2

    def test_lane_center_position(self):
        p = self.road.lane_center(0, 100.0)
        assert p == Vec2(100.0, -3.5)


class TestOnRoad:
    def setup_method(self):
        self.road = three_lane_straight_road(length=1000.0)

    def test_center_on_road(self):
        assert self.road.on_road(Vec2(500, 0))

    def test_edge_cases(self):
        assert self.road.on_road(Vec2(500, 5.25))
        assert not self.road.on_road(Vec2(500, 5.5))

    def test_before_start_off_road(self):
        assert not self.road.on_road(Vec2(-1, 0))

    def test_margin_extends(self):
        assert self.road.on_road(Vec2(500, 5.5), margin=0.5)


class TestConstruction:
    def test_rejects_zero_lanes(self):
        base = three_lane_straight_road().centerline
        with pytest.raises(ConfigurationError):
            Road(centerline=base, lane_count=0)

    def test_rejects_bad_lane_width(self):
        base = three_lane_straight_road().centerline
        with pytest.raises(ConfigurationError):
            Road(centerline=base, lane_width=0.0)


class TestCurvedRoad:
    def test_builds_both_directions(self):
        left = three_lane_curved_road(turn_left=True)
        right = three_lane_curved_road(turn_left=False)
        assert left.length == pytest.approx(right.length)

    def test_entry_is_straight(self):
        road = three_lane_curved_road(entry_length=200.0)
        assert road.heading_at(0.0) == pytest.approx(0.0)
        assert road.heading_at(199.0) == pytest.approx(0.0)

    def test_curve_changes_heading(self):
        road = three_lane_curved_road(
            entry_length=200.0, radius=400.0, arc_length=1200.0, turn_left=True
        )
        assert road.heading_at(500.0) > 0.1

    def test_right_turn_heading_negative(self):
        road = three_lane_curved_road(turn_left=False)
        assert road.heading_at(road.length - 1.0) < -0.1

    def test_frenet_round_trip_in_curve(self):
        road = three_lane_curved_road()
        frenet = FrenetPoint(700.0, -3.5)
        back = road.to_frenet(road.to_world(frenet))
        assert back.s == pytest.approx(700.0, abs=1e-6)
        assert back.d == pytest.approx(-3.5, abs=1e-6)

    def test_catalog_curve_longer_than_half_a_turn(self):
        # The catalog's curved road: R = 350 m, a 1,400 m arc (4 rad).
        road = three_lane_curved_road(
            entry_length=150.0, radius=350.0, arc_length=1400.0, turn_left=False
        )
        point = road.to_world(FrenetPoint(1300.0, 0.0))
        assert road.on_road(point)
        back = road.to_frenet(point)
        assert back.s == pytest.approx(1300.0, abs=1e-6)
        assert back.d == pytest.approx(0.0, abs=1e-6)


class TestBatchKernels:
    """to_world_batch / heading_at_batch vs their scalar counterparts."""

    @pytest.mark.parametrize(
        "road",
        [
            three_lane_straight_road(),
            three_lane_curved_road(),
            three_lane_curved_road(turn_left=False),
        ],
        ids=["straight", "curved-left", "curved-right"],
    )
    def test_to_world_batch_matches_scalar(self, road):
        import numpy as np

        stations = np.array([0.0, 1.0, 199.0, 200.0, 201.0, 700.0, 1399.9])
        offsets = np.array([0.0, -3.5, 3.5, 1.75, -1.75, 0.5, -0.5])
        xs, ys = road.to_world_batch(stations, offsets)
        for i in range(stations.size):
            point = road.to_world(
                FrenetPoint(float(stations[i]), float(offsets[i]))
            )
            assert xs[i] == pytest.approx(point.x, abs=1e-9)
            assert ys[i] == pytest.approx(point.y, abs=1e-9)

    @pytest.mark.parametrize(
        "road",
        [
            three_lane_straight_road(),
            three_lane_curved_road(),
            three_lane_curved_road(turn_left=False),
        ],
        ids=["straight", "curved-left", "curved-right"],
    )
    def test_heading_at_batch_matches_scalar(self, road):
        import numpy as np

        stations = np.array([0.0, 150.0, 200.0, 450.0, 1100.0])
        headings = road.heading_at_batch(stations)
        for i in range(stations.size):
            assert headings[i] == pytest.approx(
                road.heading_at(float(stations[i])), abs=1e-12
            )

    def test_to_world_batch_broadcasts_offsets(self):
        import numpy as np

        road = three_lane_curved_road()
        stations = np.array([[100.0, 300.0], [500.0, 900.0]])
        xs, ys = road.to_world_batch(stations, np.array(-3.5))
        assert xs.shape == stations.shape
        point = road.to_world(FrenetPoint(900.0, -3.5))
        assert xs[1, 1] == pytest.approx(point.x, abs=1e-9)
        assert ys[1, 1] == pytest.approx(point.y, abs=1e-9)

    def test_arc_batch_rejects_offset_beyond_radius(self):
        import numpy as np

        from repro.errors import GeometryError

        road = three_lane_curved_road(radius=400.0)
        with pytest.raises(GeometryError):
            road.to_world_batch(np.array([600.0]), np.array([400.0]))
