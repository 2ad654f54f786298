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
    def test_fixed_gap_parity(self, speed, accel, gap, actor_speed, l0):
        threat = FixedGapThreat(gap, actor_speed)
        scalar = LatencySearch(params=PARAMS).tolerable_latency(
            ego(speed, accel), threat, l0
        )
        batched = LatencyEngine(params=PARAMS).solve(
            ego(speed, accel), threat, l0
        )
        assert_same(scalar, batched)

    @pytest.mark.parametrize("speed,accel,gap,actor_speed,l0", CASES)
    def test_non_strict_parity(self, speed, accel, gap, actor_speed, l0):
        threat = FixedGapThreat(gap, actor_speed)
        scalar = LatencySearch(params=PARAMS, strict=False).tolerable_latency(
            ego(speed, accel), threat, l0
        )
        batched = LatencyEngine(params=PARAMS, strict=False).solve(
            ego(speed, accel), threat, l0
        )
        assert_same(scalar, batched)

    def test_speed_cap_parity(self):
        params = ZhuyiParams(ego_speed_cap=22.0)
        threat = FixedGapThreat(70.0, 8.0)
        motion = ego(20.0, 3.0, params)
        scalar = LatencySearch(params=params).tolerable_latency(
            motion, threat, 0.2
        )
        batched = LatencyEngine(params=params).solve(motion, threat, 0.2)
        assert_same(scalar, batched)

    def test_coarse_grid_parity(self):
        # A t_r that falls between tn_step multiples exercises the
        # union1d-insertion bookkeeping.
        params = ZhuyiParams(dl=0.1, l_min=0.1, tn_step=0.03, k=3)
        threat = FixedGapThreat(18.0, 2.0)
        motion = ego(14.0, 0.0, params)
        scalar = LatencySearch(params=params).tolerable_latency(
            motion, threat, 0.1
        )
        batched = LatencyEngine(params=params).solve(motion, threat, 0.1)
        assert_same(scalar, batched)


class TestSolveBatch:
    def test_empty_batch(self):
        assert LatencyEngine(params=PARAMS).solve_batch(ego(10.0), [], 1.0) == []

    def test_batch_matches_singletons(self):
        threats = [
            FixedGapThreat(15.0, 0.0),
            FixedGapThreat(120.0, 20.0),
            FixedGapThreat(2.0, 0.0),
            FixedGapThreat(55.0, 8.0),
        ]
        engine = LatencyEngine(params=PARAMS)
        motion = ego(22.0, -1.0)
        batch = engine.solve_batch(motion, threats, 1.0 / 30.0)
        assert len(batch) == len(threats)
        for threat, result in zip(threats, batch):
            assert_same(engine.solve(motion, threat, 1.0 / 30.0), result)

    def test_batch_matches_scalar_loop(self):
        threats = [FixedGapThreat(gap, 5.0) for gap in (3.0, 40.0, 400.0)]
        motion = ego(28.0)
        search = LatencySearch(params=PARAMS)
        batch = LatencyEngine(params=PARAMS).solve_batch(motion, threats, 0.1)
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
