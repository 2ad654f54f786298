"""Property-based parity: batched engine vs the scalar EXACT search.

The engine promises bit-identical results — latency, check time and
the iterations count — for arbitrary ego states, threats and current
latencies, including the subtle corners: unavoidable collisions, the
``t_r``-window insertion (a reaction time falling between ``tn_step``
multiples), and gaps so tight the feasible window is narrower than one
scan step.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import LatencyEngine
from repro.core.ego_profile import EgoMotion
from repro.core.latency import LatencySearch
from repro.core.parameters import ZhuyiParams
from repro.core.threat import FixedGapThreat, ThreatAssessor
from repro.dynamics.state import (
    StateTrajectory,
    TimedState,
    VehicleSpec,
    VehicleState,
)
from repro.geometry.vec import Vec2
from repro.road.track import three_lane_straight_road

PARAMS = ZhuyiParams()
SPEC = VehicleSpec()

ego_speed = st.floats(min_value=0.0, max_value=40.0)
ego_accel = st.floats(min_value=-6.0, max_value=4.0)
gap = st.floats(min_value=0.0, max_value=300.0)
actor_speed = st.floats(min_value=0.0, max_value=40.0)
l0 = st.floats(min_value=1.0 / 30.0, max_value=1.0)

relaxed = settings(max_examples=60, deadline=None)


def assert_same(scalar, batched):
    assert scalar.latency == batched.latency
    assert scalar.check_time == batched.check_time
    assert scalar.iterations == batched.iterations


class TestFixedGapParity:
    @relaxed
    @given(ego_speed, ego_accel, gap, actor_speed, l0)
    def test_exact_parity(self, solve_tick, v, a, g, va, current):
        motion = EgoMotion.from_state(v, a, PARAMS)
        threat = FixedGapThreat(g, va)
        engine = LatencyEngine(params=PARAMS)
        assert_same(
            LatencySearch(params=PARAMS).tolerable_latency(
                motion, threat, current
            ),
            solve_tick(engine, motion, [threat], current)[0],
        )

    @relaxed
    @given(
        ego_speed,
        st.floats(min_value=0.1, max_value=60.0),
        actor_speed,
        st.floats(min_value=0.01, max_value=0.05),
        st.integers(min_value=0, max_value=8),
    )
    def test_tr_window_edges(self, solve_tick, v, g, va, step, k):
        # Odd tn_steps and confirmation multipliers park t_r between
        # grid points, where a sub-step feasible window can open
        # exactly at t_r — the union1d insertion the kernel replays in
        # index arithmetic.
        params = ZhuyiParams(tn_step=step, k=k)
        motion = EgoMotion.from_state(v, 0.0, params)
        threat = FixedGapThreat(g, va)
        assert_same(
            LatencySearch(params=params).tolerable_latency(
                motion, threat, 1.0 / 30.0
            ),
            solve_tick(
                LatencyEngine(params=params), motion, [threat], 1.0 / 30.0
            )[0],
        )

    @relaxed
    @given(ego_speed, actor_speed, l0)
    def test_unavoidable_parity(self, solve_tick, v, va, current):
        # Zero gap with a moving ego: infeasible all the way down.
        motion = EgoMotion.from_state(v, 0.0, PARAMS)
        threat = FixedGapThreat(0.0, va)
        assert_same(
            LatencySearch(params=PARAMS).tolerable_latency(
                motion, threat, current
            ),
            solve_tick(
                LatencyEngine(params=PARAMS), motion, [threat], current
            )[0],
        )


trajectory_points = st.lists(
    st.tuples(
        st.floats(min_value=-3.0, max_value=12.0),  # x displacement step
        st.floats(min_value=-2.0, max_value=2.0),  # y
        st.floats(min_value=0.0, max_value=30.0),  # speed
    ),
    min_size=2,
    max_size=7,
)


class TestTrajectoryParity:
    @relaxed
    @given(ego_speed, ego_accel, st.floats(5.0, 120.0), trajectory_points, l0)
    def test_trajectory_threat_parity(
        self, solve_tick, v, a, start_x, points, current
    ):
        samples = []
        x = start_x
        for index, (dx, y, speed) in enumerate(points):
            x += dx
            samples.append(
                TimedState(
                    1.3 * index,
                    VehicleState(
                        position=Vec2(x, y), heading=0.0, speed=speed, accel=0.0
                    ),
                )
            )
        trajectory = StateTrajectory(samples)
        ego_state = VehicleState(
            position=Vec2(0.0, 0.0), heading=0.0, speed=v, accel=a
        )
        motion = EgoMotion.from_state(v, a, PARAMS)
        threat = ThreatAssessor(
            params=PARAMS, road=three_lane_straight_road()
        ).build_threat(ego_state, SPEC, trajectory, SPEC)
        assert_same(
            LatencySearch(params=PARAMS).tolerable_latency(
                motion, threat, current
            ),
            solve_tick(
                LatencyEngine(params=PARAMS), motion, [threat], current
            )[0],
        )


class TestRowsParity:
    @relaxed
    @given(
        st.lists(st.tuples(ego_speed, ego_accel), min_size=1, max_size=4),
        st.lists(st.tuples(gap, actor_speed), min_size=1, max_size=3),
        l0,
    )
    def test_trace_rows_match_scalar(self, egos, threat_params, current):
        # The trace-level row solver (the evaluator's hot path) against
        # the scalar loop, across ticks with differing ego states.
        motions = [EgoMotion.from_state(v, a, PARAMS) for v, a in egos]
        threats = [FixedGapThreat(g, va) for g, va in threat_params]
        engine = LatencyEngine(params=PARAMS)
        grid = engine.trace_grid(motions, current)
        rel_times = np.concatenate([grid.times, grid.reactions])
        ticks, gaps, speeds = [], [], []
        for tick in range(len(motions)):
            for threat in threats:
                g, s = threat.sample(rel_times)
                ticks.append(tick)
                gaps.append(g)
                speeds.append(s)
        rows = engine.solve_rows(
            grid, np.array(ticks), motions, np.stack(gaps), np.stack(speeds)
        )
        scalar = LatencySearch(params=PARAMS)
        k = 0
        for tick in range(len(motions)):
            for threat in threats:
                assert_same(
                    scalar.tolerable_latency(motions[tick], threat, current),
                    rows[k],
                )
                k += 1


class TestTrimmedRows:
    @relaxed
    @given(
        st.lists(st.tuples(ego_speed, ego_accel), min_size=1, max_size=4),
        st.integers(min_value=0, max_value=2**32 - 1),
        l0,
        st.data(),
    )
    def test_trimmed_rows_solve_like_full_width(
        self, egos, seed, current, data
    ):
        # Rows cut to any master width from their ticks' longest
        # readable prefix up to the whole master grid (the reaction
        # columns kept last) solve exactly like full-width rows.
        motions = [EgoMotion.from_state(v, a, PARAMS) for v, a in egos]
        engine = LatencyEngine(params=PARAMS)
        # A row-less tick faster than any drawn one stretches the master
        # grid past every row's prefix, as a stacked trace's would.
        stacked = motions + [EgoMotion.from_state(45.0, 4.0, PARAMS)]
        grid = engine.trace_grid(stacked, current)
        ticks = np.array(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=len(motions) - 1),
                    min_size=1,
                    max_size=6,
                )
            )
        )
        n_times = grid.times.size
        n_columns = n_times + grid.reactions.size
        # Uniform noise exercises the solver as fully as simulated
        # threats, and a misplaced reaction column reads other values.
        rng = np.random.default_rng(seed)
        gaps = rng.uniform(0.0, 150.0, size=(ticks.size, n_columns))
        speeds = rng.uniform(0.0, 30.0, size=(ticks.size, n_columns))
        readable = int(grid.lengths[ticks].max())
        assert readable < n_times
        width = data.draw(st.integers(min_value=readable, max_value=n_times))
        kept = np.r_[0:width, n_times:n_columns]

        full = engine.solve_rows(grid, ticks, stacked, gaps, speeds)
        trimmed = engine.solve_rows(
            grid, ticks, stacked, gaps[:, kept], speeds[:, kept]
        )
        assert len(trimmed) == len(full)
        for expected, result in zip(full, trimmed):
            assert_same(expected, result)


class TestTraceGridHorizons:
    @settings(max_examples=100, deadline=None)
    @given(
        l0, st.lists(st.tuples(ego_speed, ego_accel), min_size=1, max_size=12)
    )
    def test_horizons_equal_scalar_stop_times(self, current, states):
        params = ZhuyiParams()
        motions = [EgoMotion.from_state(v, a, params) for v, a in states]
        grid = LatencyEngine(params=params).trace_grid(motions, current)
        expected = np.array(
            [
                [
                    motion.stop_time_after(r) + params.horizon_margin
                    for r in grid.reactions.tolist()
                ]
                for motion in motions
            ]
        )
        assert grid.horizons.tobytes() == expected.tobytes()
