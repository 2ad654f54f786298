"""Property-based parity: prediction batch kernels vs their scalar loops.

The batched replay path is bit-identical to the per-tick reference only
because three kernels are: the clamped constant-acceleration integrator
(``travel_arrays`` vs the scalar ``travel`` branches), the per-row
trajectory interpolator (``RolloutArrays.sample_extrapolated`` vs
``StateTrajectory.sample_extrapolated``) and the predictors' closed-form
rollouts (``predict_trace`` vs a stacked per-tick ``predict`` loop).
Each contract is pinned here over arbitrary inputs, plus the closed-form
sample grid's prefix/exactness properties that replaced the drifting
``t += period`` accumulation.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dynamics.longitudinal import travel, travel_arrays
from repro.dynamics.state import (
    RolloutArrays,
    StateTrajectory,
    TimedState,
    VehicleState,
)
from repro.geometry.vec import Vec2
from repro.perception.world_model import PerceivedActor
from repro.prediction.base import (
    predict_trace_via_loop,
    sample_times,
)
from repro.prediction.constant_accel import ConstantAccelerationPredictor
from repro.prediction.constant_velocity import ConstantVelocityPredictor
from repro.prediction.maneuver import ManeuverPredictor
from repro.road.track import three_lane_curved_road, three_lane_straight_road

relaxed = settings(max_examples=60, deadline=None)

speed = st.floats(min_value=0.0, max_value=70.0)
accel = st.floats(min_value=-9.0, max_value=5.0)
duration = st.floats(min_value=0.0, max_value=15.0)
cap = st.one_of(st.none(), st.floats(min_value=0.5, max_value=70.0))


class TestTravelArrays:
    @relaxed
    @given(
        st.lists(st.tuples(speed, accel, duration), min_size=1, max_size=20),
        cap,
    )
    # A zero-duration braking row at a subnormal speed: its time to zero
    # underflows to 0, which once counted the row as stopped (end speed
    # 0.0 where travel keeps the speed).
    @example(rows=[(5e-324, -2.0, 0.0)], max_speed=None)
    def test_matches_scalar_travel(self, rows, max_speed):
        v0 = np.array([row[0] for row in rows])
        a = np.array([row[1] for row in rows])
        t = np.array([row[2] for row in rows])
        distances, speeds = travel_arrays(v0, a, t, max_speed)
        for i, (v, acc, dt) in enumerate(rows):
            d_ref, v_ref = travel(v, acc, dt, max_speed)
            # End speeds are branch outputs (no squaring) and must match
            # bit for bit; distances involve x**2, where numpy squares
            # by multiplication while CPython calls libm pow — the two
            # can differ in the last bit, so distances get an ulp-scale
            # tolerance. (The predictors route both their per-tick and
            # batch paths through travel_arrays, so this tolerance never
            # reaches the replay parity contract.)
            assert speeds[i] == v_ref
            assert distances[i] == d_ref or abs(
                distances[i] - d_ref
            ) <= 4.0 * np.spacing(abs(d_ref))

    @relaxed
    @given(speed, accel, duration, cap)
    def test_scalar_shape_round_trip(self, v0, a, t, max_speed):
        distance, end_speed = travel_arrays(
            np.array([v0]), np.array([a]), np.array([t]), max_speed
        )
        assert end_speed[0] >= 0.0
        if max_speed is not None and a > 0.0 and v0 <= max_speed:
            assert end_speed[0] <= max_speed + 1e-12


knot_count = st.integers(min_value=1, max_value=12)


@st.composite
def rollout_rows(draw):
    """A batch of rollouts plus the equivalent StateTrajectory list."""
    n_rows = draw(st.integers(min_value=1, max_value=6))
    n_knots = draw(knot_count)
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
    starts = rng.uniform(0.0, 10.0, n_rows)
    steps = rng.uniform(0.05, 1.0, (n_rows, max(n_knots - 1, 1)))
    times = np.concatenate(
        [starts[:, None], starts[:, None] + np.cumsum(steps, axis=1)], axis=1
    )[:, :n_knots]
    xs = rng.uniform(-200.0, 200.0, (n_rows, n_knots))
    ys = rng.uniform(-200.0, 200.0, (n_rows, n_knots))
    speeds = rng.uniform(0.0, 40.0, (n_rows, n_knots))
    headings = rng.uniform(-np.pi, np.pi, (n_rows, n_knots))
    trajectories = [
        StateTrajectory(
            TimedState(
                time=float(times[r, k]),
                state=VehicleState(
                    position=Vec2(float(xs[r, k]), float(ys[r, k])),
                    heading=float(headings[r, k]),
                    speed=float(speeds[r, k]),
                ),
            )
            for k in range(n_knots)
        )
        for r in range(n_rows)
    ]
    end_velocities = [t.knot_arrays()[4] for t in trajectories]
    rollout = RolloutArrays(
        times=times,
        xs=xs,
        ys=ys,
        speeds=speeds,
        end_vx=np.array([v[0] for v in end_velocities]),
        end_vy=np.array([v[1] for v in end_velocities]),
    )
    queries = rng.uniform(-2.0, 25.0, (n_rows, 40))
    # Exact knot hits, the final knot, and beyond-the-end queries are
    # the interpolator's corners; force them into every example.
    for r in range(n_rows):
        queries[r, :n_knots] = times[r, rng.integers(0, n_knots, n_knots)]
        queries[r, n_knots] = times[r, -1]
        queries[r, n_knots + 1] = times[r, -1] + 3.0
    return rollout, trajectories, queries


class TestRolloutInterpolation:
    @relaxed
    @given(rollout_rows())
    def test_bit_identical_to_state_trajectory(self, case):
        rollout, trajectories, queries = case
        xs, ys, speeds = rollout.sample_extrapolated(queries)
        for r, trajectory in enumerate(trajectories):
            x_ref, y_ref, v_ref = trajectory.sample_extrapolated(queries[r])
            assert np.array_equal(xs[r], x_ref)
            assert np.array_equal(ys[r], y_ref)
            assert np.array_equal(speeds[r], v_ref)


horizon = st.floats(min_value=0.05, max_value=12.0)
period = st.sampled_from([0.1, 0.2, 0.25, 0.5, 1.0 / 3.0])


class TestSampleGridProperties:
    @relaxed
    @given(horizon, period)
    def test_covers_horizon_without_overshoot(self, h, p):
        grid = sample_times(h, p)
        assert grid[0] == 0.0
        assert np.all(grid <= h + 1e-9 * p + 1e-12)
        # The next sample would overshoot: the grid is maximal.
        assert grid.size * p > h - 1e-9 * p - 1e-12

    @relaxed
    @given(horizon, horizon, period)
    def test_shorter_horizon_is_prefix(self, h1, h2, p):
        lo, hi = sorted((h1, h2))
        short = sample_times(lo, p)
        long = sample_times(hi, p)
        assert np.array_equal(short, long[: short.size])


@st.composite
def perceived_trace(draw):
    n_ticks = draw(st.integers(min_value=1, max_value=6))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
    nows = 0.25 * np.arange(n_ticks) + float(rng.uniform(0.0, 2.0))
    actors = [
        PerceivedActor(
            actor_id="a",
            position=Vec2(float(rng.uniform(0.0, 300.0)), float(rng.uniform(-6.0, 6.0))),
            velocity=Vec2.unit(h := float(rng.uniform(-0.4, 0.4)))
            * (v := float(rng.uniform(0.0, 35.0))),
            heading=h,
            speed=v,
            accel=float(rng.uniform(-5.0, 3.0)),
            timestamp=float(now),
        )
        for now in nows
    ]
    return actors, nows


class TestPredictTraceParity:
    """Batch rollouts == the stacked per-tick predict loop, bit for bit."""

    def assert_equal(self, batch, stacked):
        assert stacked is not None
        assert [h.label for h in batch] == [h.label for h in stacked]
        for hypothesis_b, hypothesis_s in zip(batch, stacked):
            assert np.array_equal(hypothesis_b.active, hypothesis_s.active)
            rows = np.flatnonzero(hypothesis_b.active)
            assert np.array_equal(
                hypothesis_b.probabilities[rows],
                hypothesis_s.probabilities[rows],
            )
            for name in ("times", "xs", "ys", "speeds", "end_vx", "end_vy"):
                assert np.array_equal(
                    getattr(hypothesis_b.rollout, name)[rows],
                    getattr(hypothesis_s.rollout, name)[rows],
                ), (hypothesis_b.label, name)

    @relaxed
    @given(perceived_trace(), horizon)
    def test_constant_velocity(self, case, h):
        actors, nows = case
        predictor = ConstantVelocityPredictor()
        self.assert_equal(
            predictor.predict_trace(actors, nows, h),
            predict_trace_via_loop(predictor, actors, nows, h),
        )

    @relaxed
    @given(perceived_trace(), horizon)
    def test_constant_accel(self, case, h):
        actors, nows = case
        predictor = ConstantAccelerationPredictor()
        self.assert_equal(
            predictor.predict_trace(actors, nows, h),
            predict_trace_via_loop(predictor, actors, nows, h),
        )

    @relaxed
    @given(perceived_trace(), horizon, st.booleans())
    def test_maneuver_with_lane_change(self, case, h, curved):
        actors, nows = case
        road = (
            three_lane_curved_road() if curved else three_lane_straight_road()
        )
        predictor = ManeuverPredictor(road=road, target_lane=1)
        self.assert_equal(
            predictor.predict_trace(actors, nows, h),
            predict_trace_via_loop(predictor, actors, nows, h),
        )
