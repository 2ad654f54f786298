"""Ego reaction/braking closed forms (d_e1, d_e2, v_en)."""

import pytest

from repro.core.ego_profile import EgoMotion, braking_deceleration
from repro.core.parameters import ZhuyiParams
from repro.errors import EstimationError


class TestBrakingDeceleration:
    def test_floor_is_c3(self, params):
        # Cruising (a0 = 0): the floor C3 applies.
        assert braking_deceleration(0.0, params) == pytest.approx(4.9)

    def test_accelerating_does_not_weaken(self, params):
        assert braking_deceleration(3.0, params) == pytest.approx(4.9)

    def test_current_braking_scales(self, params):
        # Braking at 6 m/s^2: a_b = max(4.9, 1.1*6) = 6.6.
        assert braking_deceleration(-6.0, params) == pytest.approx(6.6)

    def test_mild_braking_keeps_floor(self, params):
        assert braking_deceleration(-1.0, params) == pytest.approx(4.9)


class TestEgoMotion:
    def test_from_state(self, params):
        ego = EgoMotion.from_state(speed=20.0, accel=-6.0, params=params)
        assert ego.braking_decel == pytest.approx(6.6)

    def test_rejects_negative_speed(self):
        with pytest.raises(EstimationError):
            EgoMotion(speed=-1.0, accel=0.0, braking_decel=4.9)

    def test_rejects_zero_braking(self):
        with pytest.raises(EstimationError):
            EgoMotion(speed=1.0, accel=0.0, braking_decel=0.0)


class TestReactionTravel:
    def test_constant_speed_reaction(self):
        ego = EgoMotion(speed=20.0, accel=0.0, braking_decel=4.9)
        d_e1, v_tr = ego.reaction_travel(1.5)
        assert d_e1 == pytest.approx(30.0)
        assert v_tr == pytest.approx(20.0)

    def test_accelerating_reaction(self):
        ego = EgoMotion(speed=20.0, accel=2.0, braking_decel=4.9)
        d_e1, v_tr = ego.reaction_travel(2.0)
        assert d_e1 == pytest.approx(44.0)
        assert v_tr == pytest.approx(24.0)

    def test_braking_ego_can_stop_in_reaction(self):
        ego = EgoMotion(speed=5.0, accel=-5.0, braking_decel=5.5)
        d_e1, v_tr = ego.reaction_travel(3.0)
        assert v_tr == 0.0
        assert d_e1 == pytest.approx(2.5)

    def test_rejects_negative_reaction_time(self):
        ego = EgoMotion(speed=5.0, accel=0.0, braking_decel=4.9)
        with pytest.raises(EstimationError):
            ego.reaction_travel(-0.1)


class TestTotalTravel:
    def test_reaction_plus_braking(self):
        ego = EgoMotion(speed=20.0, accel=0.0, braking_decel=5.0)
        total, v_en = ego.total_travel(reaction_time=1.0, check_time=3.0)
        # 20 m coast + braking from 20 at 5 for 2 s: 40 - 10 = 30 m.
        assert total == pytest.approx(50.0)
        assert v_en == pytest.approx(10.0)

    def test_full_stop(self):
        ego = EgoMotion(speed=20.0, accel=0.0, braking_decel=5.0)
        total, v_en = ego.total_travel(reaction_time=1.0, check_time=100.0)
        assert v_en == 0.0
        assert total == pytest.approx(20.0 + 40.0)

    def test_check_before_reaction_raises(self):
        ego = EgoMotion(speed=20.0, accel=0.0, braking_decel=5.0)
        with pytest.raises(EstimationError):
            ego.total_travel(reaction_time=2.0, check_time=1.0)


class TestStopTime:
    def test_stop_time(self):
        ego = EgoMotion(speed=20.0, accel=0.0, braking_decel=5.0)
        assert ego.stop_time_after(1.0) == pytest.approx(5.0)

    def test_stop_time_with_acceleration(self):
        ego = EgoMotion(speed=20.0, accel=2.0, braking_decel=5.0)
        # v_tr = 24 after 2 s; stop takes 24/5.
        assert ego.stop_time_after(2.0) == pytest.approx(2.0 + 4.8)


class TestProfileArrays:
    """The shared coast/brake profile routine (scalar search + engine)."""

    def setup_method(self):
        import numpy as np

        self.np = np
        self.params = ZhuyiParams()

    def motion(self, speed, accel):
        return EgoMotion.from_state(speed, accel, self.params)

    def test_matches_total_travel_past_reaction(self):
        from repro.core.ego_profile import ego_profile_arrays

        np = self.np
        ego = self.motion(18.0, -1.5)
        reaction = 0.73
        times = np.array([1.0, 2.0, 4.0, 8.0])
        (distance,), (speed,), _, _ = ego_profile_arrays(
            [ego], [reaction], times
        )
        for t, d, v in zip(times, distance[0], speed[0]):
            expect_d, expect_v = ego.total_travel(reaction, float(t))
            assert d == pytest.approx(expect_d, abs=1e-12)
            assert v == pytest.approx(expect_v, abs=1e-12)

    def test_coast_phase_clamps_at_zero_speed(self):
        from repro.core.ego_profile import ego_profile_arrays

        np = self.np
        ego = self.motion(4.0, -2.0)
        times = np.array([0.0, 1.0, 2.0, 3.0])  # stops at t=2 in-coast
        (distance,), (speed,), _, _ = ego_profile_arrays([ego], [3.0], times)
        assert speed[0, 2] == 0.0 and speed[0, 3] == 0.0
        assert distance[0, 3] == distance[0, 2]  # no reversing

    def test_broadcast_reaction_column_matches_rows(self):
        from repro.core.ego_profile import ego_profile_arrays

        np = self.np
        ego = self.motion(22.0, 1.0)
        reactions = np.array([0.4, 1.1, 2.9])
        times = np.arange(0.0, 6.0, 0.31)
        (distance_2d,), (speed_2d,), _, _ = ego_profile_arrays(
            [ego], reactions, times
        )
        for row, reaction in enumerate(reactions):
            distance, speed, _, _ = ego_profile_arrays(
                [ego], [reaction], times
            )
            assert np.array_equal(distance_2d[row], distance[0, 0])
            assert np.array_equal(speed_2d[row], speed[0, 0])

    def test_elementwise_reaction_diagonal(self):
        from repro.core.ego_profile import ego_profile_arrays

        np = self.np
        ego = self.motion(15.0, -0.5)
        reactions = np.array([0.2, 0.9, 1.7])
        _, _, (distance,), (speed,) = ego_profile_arrays(
            [ego], reactions, reactions
        )
        for r, d, v in zip(reactions, distance, speed):
            d_e1, v_tr = ego.reaction_travel(float(r))
            assert d == d_e1 and v == v_tr

    def test_vectorized_paths_call_no_scalar_kinematics(self, monkeypatch):
        # ego_profile_arrays and trace_grid take the coast, the braking
        # anchors and the scan horizons from travel_arrays alone.
        from repro.core.ego_profile import ego_profile_arrays
        from repro.core.engine import LatencyEngine

        calls = []

        def spy(name):
            original = getattr(EgoMotion, name)

            def recorded(ego, *args, **kwargs):
                calls.append(name)
                return original(ego, *args, **kwargs)

            return recorded

        for name in ("reaction_travel", "stop_time_after"):
            monkeypatch.setattr(EgoMotion, name, spy(name))
        params = ZhuyiParams()
        egos = [
            EgoMotion.from_state(v, a, params)
            for v, a in ((30.0, 1.0), (12.0, -2.0), (20.0, 0.0))
        ]
        grid = LatencyEngine(params=params).trace_grid(egos, 1.0 / 30.0)
        ego_profile_arrays(egos, grid.reactions, grid.times)
        assert calls == []
        egos[0].stop_time_after(1.0)
        assert calls == ["stop_time_after", "reaction_travel"]
