"""Threat extraction: fixed gaps, trajectory threats, lateral gating."""

import numpy as np
import pytest

from repro.core.parameters import ZhuyiParams
from repro.core.threat import (
    CorridorLayout,
    CorridorSpec,
    FixedGapThreat,
    ThreatAssessor,
    TrajectoryThreat,
)
from repro.dynamics.state import (
    StateTrajectory,
    TimedState,
    VehicleSpec,
    VehicleState,
)
from repro.errors import EstimationError
from repro.geometry.vec import Vec2
from repro.road.track import three_lane_straight_road


def vstate(x: float, y: float = 0.0, speed: float = 10.0,
           heading: float = 0.0) -> VehicleState:
    return VehicleState(Vec2(x, y), heading, speed, 0.0)


def straight_trajectory(x0: float, y: float, speed: float,
                        duration: float = 10.0) -> StateTrajectory:
    return StateTrajectory(
        TimedState(t, vstate(x0 + speed * t, y, speed))
        for t in np.arange(0.0, duration + 0.25, 0.25)
    )


def recording(calls, sample):
    """Wrap a ``sample_extrapolated`` to record each call's queries."""

    def wrapper(*args):
        calls.append(np.array(args[-1]))
        return sample(*args)

    return wrapper


def sampled_instants(rel_times):
    """The relative instants one sampler call must interpolate.

    The scan instants in order, then each distinct 10 ms-quantized
    corridor-mask instant (rounded half-to-even, clamped to
    ``[0, 24.99]``) that no scan instant already holds, ascending.
    """
    grid = np.arange(0.0, 25.0, 0.01)
    indices = np.clip(np.rint(rel_times / 0.01).astype(int), 0, grid.size - 1)
    return np.concatenate([rel_times, np.setdiff1d(grid[indices], rel_times)])


def trace_grid_instants(ego_states, l0=1.0 / 30.0):
    """``(rel_times, T + L)`` of a real engine grid over these ticks."""
    from repro.core.ego_profile import EgoMotion
    from repro.core.engine import LatencyEngine

    params = ZhuyiParams()
    grid = LatencyEngine(params=params).trace_grid(
        [EgoMotion.from_state(s.speed, s.accel, params) for s in ego_states],
        l0,
    )
    rel_times = np.concatenate([grid.times, grid.reactions])
    return rel_times, grid.times.size + grid.reactions.size


class TestFixedGapThreat:
    def test_constant_queries(self):
        threat = FixedGapThreat(gap=30.0, actor_speed=5.0)
        assert threat.gap_at(0.0) == 30.0
        assert threat.gap_at(100.0) == 30.0
        assert threat.actor_speed_at(42.0) == 5.0

    def test_vectorized_matches_scalar(self):
        threat = FixedGapThreat(gap=30.0, actor_speed=5.0)
        gaps, speeds = threat.sample(np.array([0.0, 1.0, 2.0]))
        assert np.allclose(gaps, 30.0)
        assert np.allclose(speeds, 5.0)

    def test_rejects_negative_gap(self):
        with pytest.raises(EstimationError):
            FixedGapThreat(gap=-1.0, actor_speed=0.0)

    def test_rejects_negative_speed(self):
        with pytest.raises(EstimationError):
            FixedGapThreat(gap=1.0, actor_speed=-1.0)


class TestRoadRequired:
    """Threat geometry is the road's: omitting it raises, never falls back."""

    def test_assessor_requires_road(self):
        with pytest.raises(TypeError, match="road"):
            ThreatAssessor(params=ZhuyiParams())

    def test_corridor_requires_road(self):
        with pytest.raises(TypeError, match="road"):
            CorridorSpec(ego_lateral=0.0, overlap_width=1.0)

    def test_trajectory_threat_requires_corridor(self):
        spec = VehicleSpec()
        trajectory = straight_trajectory(50.0, 0.0, speed=0.0)
        with pytest.raises(TypeError, match="corridor"):
            TrajectoryThreat(vstate(0.0), spec, trajectory, spec)


class TestTrajectoryThreat:
    def setup_method(self):
        self.spec = VehicleSpec(length=4.8)
        self.ego = vstate(0.0, speed=20.0)

    def threat(self, trajectory, t0=0.0) -> TrajectoryThreat:
        assessor = ThreatAssessor(
            params=ZhuyiParams(), road=three_lane_straight_road()
        )
        return assessor.build_threat(
            self.ego, self.spec, trajectory, self.spec, t0=t0
        )

    def test_gap_subtracts_half_lengths(self):
        trajectory = straight_trajectory(50.0, 0.0, speed=0.0)
        threat = self.threat(trajectory)
        assert threat.gap_at(0.0) == pytest.approx(50.0 - 4.8)

    def test_gap_grows_with_receding_actor(self):
        trajectory = straight_trajectory(50.0, 0.0, speed=10.0)
        threat = self.threat(trajectory)
        assert threat.gap_at(2.0) == pytest.approx(70.0 - 4.8)

    def test_gap_never_negative(self):
        trajectory = straight_trajectory(1.0, 0.0, speed=0.0)
        threat = self.threat(trajectory)
        assert threat.gap_at(0.0) == 0.0

    def test_speed_query(self):
        trajectory = straight_trajectory(50.0, 0.0, speed=7.5)
        threat = self.threat(trajectory)
        assert threat.actor_speed_at(1.0) == pytest.approx(7.5)

    def test_t0_offset(self):
        trajectory = straight_trajectory(50.0, 0.0, speed=10.0)
        threat = self.threat(trajectory, t0=2.0)
        # Relative t=0 is absolute t=2: actor at 70.
        assert threat.gap_at(0.0) == pytest.approx(70.0 - 4.8)

    def test_coasts_past_prediction_end(self):
        trajectory = straight_trajectory(50.0, 0.0, speed=10.0, duration=2.0)
        threat = self.threat(trajectory)
        # At t=5 the record ends at x=70; coasting adds 3 s * 10 m/s.
        assert threat.gap_at(5.0) == pytest.approx(100.0 - 4.8)

    def test_vectorized_matches_scalar(self):
        trajectory = straight_trajectory(50.0, 1.0, speed=4.0, duration=3.0)
        threat = self.threat(trajectory)
        times = np.array([0.0, 0.5, 2.9, 3.5, 8.0])
        gaps, speeds = threat.sample(times)
        for i, t in enumerate(times):
            assert gaps[i] == pytest.approx(threat.gap_at(float(t)))
            assert speeds[i] == pytest.approx(threat.actor_speed_at(float(t)))


class TestThreatAssessorGating:
    def setup_method(self):
        self.params = ZhuyiParams()
        self.assessor = ThreatAssessor(
            params=self.params, road=three_lane_straight_road()
        )
        self.spec = VehicleSpec()
        self.ego = vstate(0.0, 0.0, speed=20.0)

    def test_lead_in_lane_is_threat(self):
        trajectory = straight_trajectory(40.0, 0.0, speed=15.0)
        assert self.assessor.assess(
            self.ego, self.spec, trajectory, self.spec
        ) is not None

    def test_adjacent_lane_actor_gated_out(self):
        trajectory = straight_trajectory(40.0, 3.5, speed=15.0)
        assert self.assessor.assess(
            self.ego, self.spec, trajectory, self.spec
        ) is None

    def test_behind_actor_gated_out(self):
        trajectory = straight_trajectory(-20.0, 0.0, speed=25.0)
        assert self.assessor.assess(
            self.ego, self.spec, trajectory, self.spec
        ) is None

    def test_cut_in_actor_is_threat(self):
        # Starts in the adjacent lane, merges into the ego lane at t=2-4.
        samples = []
        for t in np.arange(0.0, 8.25, 0.25):
            if t < 2.0:
                y = 3.5
            elif t < 4.0:
                y = 3.5 * (1.0 - (t - 2.0) / 2.0)
            else:
                y = 0.0
            samples.append(TimedState(t, vstate(40.0 + 15.0 * t, y, 15.0)))
        trajectory = StateTrajectory(samples)
        assert self.assessor.assess(
            self.ego, self.spec, trajectory, self.spec
        ) is not None

    def test_cut_in_beyond_horizon_gated_out(self):
        # Merge starts after the assessor's horizon: not yet a threat.
        params = ZhuyiParams(horizon=3.0)
        assessor = ThreatAssessor(
            params=params, road=three_lane_straight_road()
        )
        samples = []
        for t in np.arange(0.0, 12.25, 0.25):
            y = 3.5 if t < 10.0 else 0.0
            samples.append(TimedState(t, vstate(40.0 + 15.0 * t, y, 15.0)))
        trajectory = StateTrajectory(samples)
        assert assessor.assess(self.ego, self.spec, trajectory, self.spec) is None

    def test_faster_follower_in_lane_gated_out(self):
        # The front_right_activity_1 regression: a faster actor behind the
        # ego crosses the ego's *original* position but can never be hit
        # by a braking ego.
        trajectory = straight_trajectory(-30.0, 0.0, speed=25.0)
        assert self.assessor.assess(
            self.ego, self.spec, trajectory, self.spec
        ) is None

    def test_abeam_actor_in_other_lane_gated_out(self):
        trajectory = straight_trajectory(1.0, 3.5, speed=20.0)
        assert self.assessor.assess(
            self.ego, self.spec, trajectory, self.spec
        ) is None


class TestSampleGrid:
    def test_shape_preserved(self):
        from repro.core.threat import sample_grid

        threat = FixedGapThreat(gap=12.0, actor_speed=3.0)
        times = np.linspace(0.0, 4.0, 12).reshape(3, 4)
        gaps, speeds = sample_grid(threat, times)
        assert gaps.shape == (3, 4) and speeds.shape == (3, 4)
        assert np.all(gaps == 12.0) and np.all(speeds == 3.0)

    def test_matches_flat_sample(self):
        from repro.core.threat import sample_grid

        spec = VehicleSpec()
        trajectory = straight_trajectory(30.0, 0.0, speed=8.0)
        assessor = ThreatAssessor(
            params=ZhuyiParams(), road=three_lane_straight_road()
        )
        threat = assessor.build_threat(vstate(0.0), spec, trajectory, spec)
        times = np.linspace(0.0, 6.0, 10).reshape(2, 5)
        gaps, speeds = sample_grid(threat, times)
        flat_gaps, flat_speeds = threat.sample(times.ravel())
        assert np.array_equal(gaps.ravel(), flat_gaps)
        assert np.array_equal(speeds.ravel(), flat_speeds)


class TestTraceGate:
    """could_collide_trace == the per-tick gate, every tick."""

    spec = VehicleSpec()

    def _states(self, times):
        return [vstate(20.0 * t, 0.0, speed=20.0) for t in times]

    @pytest.mark.parametrize("lane_y", [0.0, 3.5])
    def test_matches_per_tick_assess(self, lane_y):
        road = three_lane_straight_road(length=1500.0)
        assessor = ThreatAssessor(params=ZhuyiParams(), road=road)
        trajectory = straight_trajectory(60.0, lane_y, speed=4.0, duration=20.0)
        times = np.arange(0.0, 18.0, 0.4)
        ego_states = self._states(times)
        table = assessor.could_collide_trace(
            ego_states, self.spec, trajectory, self.spec, times
        )
        for state, t0, verdict in zip(ego_states, times, table):
            per_tick = (
                assessor.assess(
                    state, self.spec, trajectory, self.spec, t0=float(t0)
                )
                is not None
            )
            assert per_tick == bool(verdict), t0


class TestTraceSampler:
    """sample_threats_trace == per-tick TrajectoryThreat.sample, bit for bit.

    One interpolation per batch, over each distinct relative instant:
    the scan instants, then the quantized corridor-mask instants no
    scan instant already holds.
    """

    spec = VehicleSpec()

    t0s = np.arange(0.0, 12.0, 0.8)

    def _ego_states(self):
        # A slowly turning ego: the corridor follows the road, not the
        # ego's heading.
        return [
            vstate(5.0 * t, 0.0, speed=5.0, heading=0.02 * t) for t in self.t0s
        ]

    def _assert_matches_per_tick(self, road, rel_times):
        assessor = ThreatAssessor(params=ZhuyiParams(), road=road)
        # A cut-in-ish trajectory: starts in the next lane, merges.
        samples = []
        for t in np.arange(0.0, 15.25, 0.25):
            y = max(0.0, 3.5 - 0.5 * t)
            samples.append(TimedState(float(t), vstate(50.0 + 6.0 * t, y, 6.0)))
        trajectory = StateTrajectory(samples)
        t0s = self.t0s
        ego_states = self._ego_states()

        calls = []
        trajectory.sample_extrapolated = recording(
            calls, trajectory.sample_extrapolated
        )
        gaps, speeds = assessor.sample_threats_trace(
            ego_states, self.spec, trajectory, self.spec, t0s, rel_times
        )
        del trajectory.sample_extrapolated
        (queries,) = calls
        assert np.array_equal(
            queries, t0s[:, None] + sampled_instants(rel_times)[None, :]
        )
        for n, (state, t0) in enumerate(zip(ego_states, t0s)):
            threat = assessor.build_threat(
                state, self.spec, trajectory, self.spec, t0=float(t0)
            )
            tick_gaps, tick_speeds = threat.sample(rel_times)
            assert np.array_equal(gaps[n], tick_gaps), t0
            assert np.array_equal(speeds[n], tick_speeds), t0
        return queries

    #: Off the 10 ms grid: most mask instants become extra columns.
    off_grid = np.arange(0.0, 9.0, 0.037)

    def test_matches_per_tick_threats(self):
        queries = self._assert_matches_per_tick(
            three_lane_straight_road(length=1500.0), self.off_grid
        )
        assert self.off_grid.size < queries.shape[1] < 2 * self.off_grid.size

    def test_trace_grid_instants_sampled_once(self):
        road = three_lane_straight_road(length=1500.0)
        rel_times, width = trace_grid_instants(self._ego_states())
        # Every quantized mask instant of a real 10 ms grid is one of
        # its scan instants: T + L columns, not 2 x (T + L).
        queries = self._assert_matches_per_tick(road, rel_times)
        assert queries.shape[1] == width
        assert np.unique(queries[0]).size == width
        # The mask instants are the leading scan columns, in order: the
        # sampler reads them as one slice.
        layout = CorridorLayout.of(rel_times)
        assert np.array_equal(layout.instants, rel_times)
        assert isinstance(layout.mask_columns, slice)


class TestCorridorMaskQuantization:
    """The 10 ms master-grid contract of the corridor mask.

    ``TrajectoryThreat._corridor_mask`` evaluates the lateral geometry
    once on a fixed 10 ms grid; every query — however far off-grid — is
    answered by the nearest grid sample without re-evaluating anything.
    """

    def _cut_in_threat(self) -> TrajectoryThreat:
        # The actor slides from the adjacent lane into the ego's lane,
        # so the corridor mask flips from clear to overlapping somewhere
        # along the master grid.
        trajectory = StateTrajectory(
            TimedState(
                t, vstate(30.0 + 5.0 * t, max(0.0, 4.0 - 0.8 * t), speed=5.0)
            )
            for t in np.arange(0.0, 10.0 + 0.25, 0.25)
        )
        assessor = ThreatAssessor(
            params=ZhuyiParams(), road=three_lane_straight_road()
        )
        return assessor.build_threat(
            vstate(0.0, speed=20.0), VehicleSpec(), trajectory, VehicleSpec()
        )

    def _corridor_states(self, threat, times: np.ndarray) -> np.ndarray:
        gaps, _ = threat.sample(times)
        return np.isinf(gaps)

    def test_off_grid_queries_snap_to_nearest_grid_sample(self):
        threat = self._cut_in_threat()
        off_grid = np.array([0.1234, 1.0049, 2.5551, 4.4444, 7.7777])
        snapped = np.rint(off_grid / 0.01) * 0.01
        assert np.array_equal(
            self._corridor_states(threat, off_grid),
            self._corridor_states(threat, snapped),
        )

    def test_rounding_picks_the_nearest_neighbour_at_a_flip(self):
        threat = self._cut_in_threat()
        grid = np.arange(0.0, 10.0, 0.01)
        states = self._corridor_states(threat, grid)
        flips = np.flatnonzero(states[1:] != states[:-1])
        assert flips.size, "the cut-in must cross the corridor edge"
        boundary = float(grid[flips[0] + 1])
        # 4 ms before the flip sample rounds onto it; 6 ms before rounds
        # back onto the previous sample.
        assert self._corridor_states(threat, np.array([boundary - 0.004]))[
            0
        ] == states[flips[0] + 1]
        assert self._corridor_states(threat, np.array([boundary - 0.006]))[
            0
        ] == states[flips[0]]

    def test_queries_outside_the_span_clamp_to_the_grid_ends(self):
        threat = self._cut_in_threat()
        assert self._corridor_states(threat, np.array([-0.5]))[
            0
        ] == self._corridor_states(threat, np.array([0.0]))[0]
        assert self._corridor_states(threat, np.array([80.0]))[
            0
        ] == self._corridor_states(threat, np.array([24.99]))[0]

    def test_mask_is_built_once_and_never_rebuilt(self):
        threat = self._cut_in_threat()
        trajectory = threat._trajectory
        calls = {"count": 0}
        original = trajectory.sample_extrapolated

        def counting(times):
            calls["count"] += 1
            return original(times)

        trajectory.sample_extrapolated = counting
        threat.sample(np.array([0.0, 0.107]))
        # One interpolation for the query itself, one for the mask grid.
        assert calls["count"] == 2
        threat.sample(np.array([0.0037]))  # off-grid
        threat.sample(np.array([19.99]))  # off-grid, near the span end
        # Only the per-query interpolations; the mask was not rebuilt.
        assert calls["count"] == 4


class TestFuturesBatch:
    """could_collide_futures / sample_threat_futures vs per-tick threats.

    The futures batch serves the batched replay: row n carries the
    actor's *predicted* trajectory as of tick n. Against per-tick
    trajectories that differ row to row, the batch must reproduce the
    per-tick assess/sample arithmetic exactly.
    """

    def rollout_rows(self, trajectories):
        from repro.dynamics.state import RolloutArrays

        knots = [trajectory.knot_arrays() for trajectory in trajectories]
        return RolloutArrays(
            times=np.stack([k[0] for k in knots]),
            xs=np.stack([k[1] for k in knots]),
            ys=np.stack([k[2] for k in knots]),
            speeds=np.stack([k[3] for k in knots]),
            end_vx=np.array([k[4][0] for k in knots]),
            end_vy=np.array([k[4][1] for k in knots]),
        )

    def per_tick_setup(self):
        params = ZhuyiParams()
        assessor = ThreatAssessor(
            params=params, road=three_lane_straight_road()
        )
        t0s = np.array([0.0, 0.5, 1.0, 1.5])
        # A slowly turning ego: the gate and corridor follow the road,
        # not the ego's heading.
        ego_states = [
            vstate(5.0 * t, 0.0, speed=20.0, heading=0.04 * t) for t in t0s
        ]
        # A different predicted future per tick: a lead pulling away,
        # a crosser, a parallel-lane actor and a receding actor.
        trajectories = [
            straight_trajectory(40.0 + 3.0 * i, y, 12.0 + i, duration=6.0)
            for i, y in enumerate((0.0, 1.5, 5.0, 0.5))
        ]
        return params, assessor, t0s, ego_states, trajectories

    def test_gate_matches_per_tick_assess(self):
        spec = VehicleSpec()
        params, assessor, t0s, ego_states, trajectories = (
            self.per_tick_setup()
        )
        batch = assessor.could_collide_futures(
            ego_states, spec, self.rollout_rows(trajectories), spec, t0s
        )
        for i in range(len(t0s)):
            per_tick = (
                assessor.assess(
                    ego_states[i],
                    spec,
                    trajectories[i],
                    spec,
                    t0=float(t0s[i]),
                )
                is not None
            )
            assert bool(batch[i]) == per_tick, i

    def _assert_samples_match_per_tick(self, monkeypatch, rel_times=None):
        from repro.dynamics.state import RolloutArrays

        spec = VehicleSpec()
        if rel_times is None:
            # Mostly off the 10 ms grid; 30 s clamps to 24.99 s.
            rel_times = np.array([0.0, 0.1, 0.37, 1.0, 2.5, 7.0, 30.0])
        params, assessor, t0s, ego_states, trajectories = (
            self.per_tick_setup()
        )
        calls = []
        monkeypatch.setattr(
            RolloutArrays,
            "sample_extrapolated",
            recording(calls, RolloutArrays.sample_extrapolated),
        )
        gaps, speeds = assessor.sample_threat_futures(
            ego_states,
            spec,
            self.rollout_rows(trajectories),
            spec,
            t0s,
            rel_times,
        )
        (queries,) = calls
        assert np.array_equal(
            queries, t0s[:, None] + sampled_instants(rel_times)[None, :]
        )
        for i in range(len(t0s)):
            threat = assessor.build_threat(
                ego_states[i], spec, trajectories[i], spec, t0=float(t0s[i])
            )
            ref_gaps, ref_speeds = threat.sample(rel_times)
            assert np.array_equal(gaps[i], ref_gaps), i
            assert np.array_equal(speeds[i], ref_speeds), i
        return ego_states, queries

    def test_samples_match_per_tick_trajectory_threat(self, monkeypatch):
        _, queries = self._assert_samples_match_per_tick(monkeypatch)
        # Every on-grid scan instant is its own mask instant; only 30 s,
        # clamped to 24.99 s, is appended.
        assert queries.shape[1] == 7 + 1

    def test_trace_grid_instants_sampled_once(self, monkeypatch):
        _, _, _, ego_states, _ = self.per_tick_setup()
        rel_times, width = trace_grid_instants(ego_states)
        _, queries = self._assert_samples_match_per_tick(
            monkeypatch, rel_times
        )
        assert queries.shape[1] == width
        assert np.unique(queries[0]).size == width

    def test_shared_ego_rows_change_nothing(self):
        # The live tick and the replay pass one ego-side cache, cut to
        # the ticks at hand, to every (actor, hypothesis) call; gates and
        # samples are those each call derives on its own.
        spec = VehicleSpec()
        _, assessor, t0s, ego_states, trajectories = self.per_tick_setup()
        ticks = np.array([1, 3])
        states = [ego_states[i] for i in ticks]
        futures = self.rollout_rows([trajectories[i] for i in ticks])
        ego_rows = assessor.ego_path_rows(ego_states).take(ticks)
        rel_times = np.array([0.0, 0.1, 0.37, 1.0, 2.5, 7.0, 30.0])
        assert np.array_equal(
            assessor.could_collide_futures(
                states, spec, futures, spec, t0s[ticks], ego_rows=ego_rows
            ),
            assessor.could_collide_futures(
                states, spec, futures, spec, t0s[ticks]
            ),
        )
        cached = assessor.sample_threat_futures(
            states, spec, futures, spec, t0s[ticks], rel_times,
            ego_rows=ego_rows,
        )
        derived = assessor.sample_threat_futures(
            states, spec, futures, spec, t0s[ticks], rel_times
        )
        for got, want in zip(cached, derived):
            assert np.array_equal(got, want)

    def test_take_selects_tick_rows(self):
        _, assessor, _, ego_states, _ = self.per_tick_setup()
        ticks = np.array([3, 0, 2])
        taken = assessor.ego_path_rows(ego_states).take(ticks)
        expected = assessor.ego_path_rows([ego_states[i] for i in ticks])
        for name in ("xs", "ys", "s", "d"):
            assert np.array_equal(getattr(taken, name), getattr(expected, name))
