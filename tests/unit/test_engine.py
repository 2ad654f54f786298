"""The batched latency engine — exact parity with the scalar reference.

The engine's contract is bit-identical ``LatencyResult`` values
(latency, check time AND the Section 4.2 ``iterations`` count) for the
EXACT strategy, so every test here compares against
:class:`LatencySearch` rather than against golden numbers.
"""

import numpy as np
import pytest

from repro.core.engine import LatencyEngine
from repro.core.ego_profile import EgoMotion
from repro.core.latency import LatencySearch
from repro.core.parameters import ZhuyiParams
from repro.core.threat import FixedGapThreat

PARAMS = ZhuyiParams()


def ego(speed: float, accel: float = 0.0, params=PARAMS) -> EgoMotion:
    return EgoMotion.from_state(speed, accel, params)


def assert_same(scalar, batched):
    assert scalar.latency == batched.latency
    assert scalar.check_time == batched.check_time
    assert scalar.iterations == batched.iterations


class TestSolveParity:
    CASES = [
        # (speed, accel, gap, actor_speed, l0)
        (20.0, 0.0, 80.0, 10.0, 1.0 / 30.0),  # mid-grid answer
        (30.0, 0.0, 300.0, 25.0, 1.0 / 30.0),  # benign, l_max
        (30.0, -2.0, 5.0, 0.0, 1.0 / 30.0),  # unavoidable collision
        (0.0, 0.0, 10.0, 0.0, 1.0),  # stopped ego
        (15.0, 2.5, 40.0, 5.0, 0.5),  # accelerating ego
        (25.0, -4.0, 60.0, 20.0, 0.2),  # decelerating ego
        (10.0, 0.0, 0.0, 3.0, 1.0 / 30.0),  # zero gap
    ]

    @pytest.mark.parametrize("speed,accel,gap,actor_speed,l0", CASES)
    def test_fixed_gap_parity(
        self, speed, accel, gap, actor_speed, l0, solve_tick
    ):
        threat = FixedGapThreat(gap, actor_speed)
        scalar = LatencySearch(params=PARAMS).tolerable_latency(
            ego(speed, accel), threat, l0
        )
        (batched,) = solve_tick(
            LatencyEngine(params=PARAMS), ego(speed, accel), [threat], l0
        )
        assert_same(scalar, batched)

    def test_speed_cap_parity(self, solve_tick):
        params = ZhuyiParams(ego_speed_cap=22.0)
        threat = FixedGapThreat(70.0, 8.0)
        motion = ego(20.0, 3.0, params)
        scalar = LatencySearch(params=params).tolerable_latency(
            motion, threat, 0.2
        )
        (batched,) = solve_tick(
            LatencyEngine(params=params), motion, [threat], 0.2
        )
        assert_same(scalar, batched)

    def test_coarse_grid_parity(self, solve_tick):
        # A t_r that falls between tn_step multiples exercises the
        # union1d-insertion bookkeeping.
        params = ZhuyiParams(dl=0.1, l_min=0.1, tn_step=0.03, k=3)
        threat = FixedGapThreat(18.0, 2.0)
        motion = ego(14.0, 0.0, params)
        scalar = LatencySearch(params=params).tolerable_latency(
            motion, threat, 0.1
        )
        (batched,) = solve_tick(
            LatencyEngine(params=params), motion, [threat], 0.1
        )
        assert_same(scalar, batched)


class TestSolveBatch:
    """Every threat of one tick as rows of a one-tick grid."""

    def test_empty_batch(self, solve_tick):
        engine = LatencyEngine(params=PARAMS)
        assert solve_tick(engine, ego(10.0), [], 1.0) == []

    def test_batch_matches_singletons(self, solve_tick):
        threats = [
            FixedGapThreat(15.0, 0.0),
            FixedGapThreat(120.0, 20.0),
            FixedGapThreat(2.0, 0.0),
            FixedGapThreat(55.0, 8.0),
        ]
        engine = LatencyEngine(params=PARAMS)
        motion = ego(22.0, -1.0)
        batch = solve_tick(engine, motion, threats, 1.0 / 30.0)
        assert len(batch) == len(threats)
        for threat, result in zip(threats, batch):
            (single,) = solve_tick(engine, motion, [threat], 1.0 / 30.0)
            assert_same(single, result)

    def test_batch_matches_scalar_loop(self, solve_tick):
        threats = [FixedGapThreat(gap, 5.0) for gap in (3.0, 40.0, 400.0)]
        motion = ego(28.0)
        search = LatencySearch(params=PARAMS)
        batch = solve_tick(LatencyEngine(params=PARAMS), motion, threats, 0.1)
        for threat, result in zip(threats, batch):
            assert_same(search.tolerable_latency(motion, threat, 0.1), result)


class TestSolveRows:
    def test_rows_match_per_tick_batches(self):
        engine = LatencyEngine(params=PARAMS)
        motions = [ego(30.0, 0.0), ego(12.0, -2.0), ego(0.0, 0.0), ego(20.0, 1.0)]
        threats = [
            FixedGapThreat(10.0, 0.0),
            FixedGapThreat(90.0, 15.0),
            FixedGapThreat(250.0, 30.0),
        ]
        l0 = 1.0 / 30.0
        grid = engine.trace_grid(motions, l0)
        rel_times = np.concatenate([grid.times, grid.reactions])
        tick_indices = []
        gaps = []
        speeds = []
        for tick in range(len(motions)):
            for threat in threats:
                g, s = threat.sample(rel_times)
                tick_indices.append(tick)
                gaps.append(g)
                speeds.append(s)
        rows = engine.solve_rows(
            grid,
            np.array(tick_indices),
            motions,
            np.stack(gaps),
            np.stack(speeds),
        )
        search = LatencySearch(params=PARAMS)
        for k, (tick, threat) in enumerate(
            (t, threat) for t in range(len(motions)) for threat in threats
        ):
            assert_same(
                search.tolerable_latency(motions[tick], threat, l0), rows[k]
            )

    def test_empty_rows(self):
        engine = LatencyEngine(params=PARAMS)
        grid = engine.trace_grid([ego(10.0)], 1.0)
        rel = np.concatenate([grid.times, grid.reactions])
        out = engine.solve_rows(
            grid,
            np.array([], dtype=int),
            [ego(10.0)],
            np.empty((0, rel.size)),
            np.empty((0, rel.size)),
        )
        assert out == []


class TestSolveRowsWidthContract:
    """Row arrays must match the grid, or ``solve_rows`` names the problem.

    A row carries ``T' + L`` columns: a master prefix ``T'`` between the
    longest readable prefix of its ticks and ``grid.times.size``, then
    the ``L`` reaction columns.
    """

    def setup_method(self):
        self.engine = LatencyEngine(params=PARAMS)
        # A fast and a slow ego: the slow tick reads a shorter prefix.
        self.motions = [ego(30.0), ego(5.0)]
        self.grid = self.engine.trace_grid(self.motions, 1.0 / 30.0)
        self.n_times = self.grid.times.size
        self.n_reactions = self.grid.reactions.size

    def rows(self, ticks, width):
        n = len(ticks)
        return (
            np.asarray(ticks),
            np.full((n, width + self.n_reactions), 50.0),
            np.full((n, width + self.n_reactions), 5.0),
        )

    def solve(self, ticks, gaps, speeds):
        return self.engine.solve_rows(
            self.grid, ticks, self.motions, gaps, speeds
        )

    def test_mismatched_gap_and_speed_shapes_raise(self):
        ticks, gaps, speeds = self.rows([0, 1], self.n_times)
        with pytest.raises(ValueError, match="gaps and aspeeds must share"):
            self.solve(ticks, gaps, speeds[:, :-1])

    def test_tick_indices_must_be_one_per_row(self):
        ticks, gaps, speeds = self.rows([0, 1], self.n_times)
        with pytest.raises(ValueError, match=r"tick_indices must be an \(R,\)"):
            self.solve(ticks[:1], gaps, speeds)
        with pytest.raises(ValueError, match=r"tick_indices must be an \(R,\)"):
            self.solve(ticks[:, None], gaps, speeds)

    def test_width_below_the_readable_prefix_raises(self):
        readable = int(self.grid.lengths[1].max())
        assert readable < self.n_times
        ticks, gaps, speeds = self.rows([1], readable - 1)
        with pytest.raises(ValueError, match="below the longest readable"):
            self.solve(ticks, gaps, speeds)
        # The fast tick reads the whole master grid.
        ticks, gaps, speeds = self.rows([0, 1], readable)
        with pytest.raises(ValueError, match="below the longest readable"):
            self.solve(ticks, gaps, speeds)

    def test_width_above_the_master_grid_raises(self):
        ticks, gaps, speeds = self.rows([0, 1], self.n_times + 1)
        with pytest.raises(ValueError, match="above the master grid"):
            self.solve(ticks, gaps, speeds)
