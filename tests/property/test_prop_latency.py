"""Property-based tests: the latency search's safety invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ego_profile import EgoMotion
from repro.core.latency import LatencySearch
from repro.core.parameters import ZhuyiParams
from repro.core.threat import FixedGapThreat

PARAMS = ZhuyiParams()
EXACT = LatencySearch(params=PARAMS)

ego_speed = st.floats(min_value=0.0, max_value=40.0)
gap = st.floats(min_value=1.0, max_value=300.0)
actor_speed = st.floats(min_value=0.0, max_value=40.0)


def ego(speed: float, accel: float = 0.0) -> EgoMotion:
    return EgoMotion.from_state(speed, accel, PARAMS)


relaxed = settings(max_examples=60, deadline=None)


class TestSearchInvariants:
    @relaxed
    @given(ego_speed, gap, actor_speed)
    def test_latency_on_grid_or_none(self, v, g, va):
        result = EXACT.tolerable_latency(ego(v), FixedGapThreat(g, va), 1.0)
        if result.latency is not None:
            grid = PARAMS.latency_grid()
            assert any(abs(result.latency - value) < 1e-9 for value in grid)

    @relaxed
    @given(ego_speed, gap, actor_speed)
    def test_feasible_result_satisfies_constraints(self, v, g, va):
        result = EXACT.tolerable_latency(ego(v), FixedGapThreat(g, va), 1.0)
        if result.latency is None:
            return
        reaction = result.latency + PARAMS.confirmation_delay(result.latency, 1.0)
        travelled, v_en = ego(v).total_travel(reaction, result.check_time)
        assert travelled <= PARAMS.c1 * g + 1e-6
        assert v_en <= PARAMS.c2 * va + 1e-6

    @relaxed
    @given(ego_speed, gap, gap, actor_speed)
    def test_monotone_in_gap(self, v, g1, g2, va):
        lo, hi = sorted((g1, g2))
        near = EXACT.tolerable_latency(
            ego(v), FixedGapThreat(lo, va), 1.0
        ).latency_or_zero()
        far = EXACT.tolerable_latency(
            ego(v), FixedGapThreat(hi, va), 1.0
        ).latency_or_zero()
        assert far >= near - 1e-9

    @relaxed
    @given(ego_speed, ego_speed, gap, actor_speed)
    def test_monotone_in_ego_speed(self, v1, v2, g, va):
        slow, fast = sorted((v1, v2))
        l_slow = EXACT.tolerable_latency(
            ego(slow), FixedGapThreat(g, va), 1.0
        ).latency_or_zero()
        l_fast = EXACT.tolerable_latency(
            ego(fast), FixedGapThreat(g, va), 1.0
        ).latency_or_zero()
        assert l_fast <= l_slow + 1e-9

    @relaxed
    @given(ego_speed, gap, actor_speed, st.floats(min_value=1 / 30, max_value=1.0))
    def test_l0_monotone(self, v, g, va, l0):
        # A slower-running stack (larger l0) never tightens the estimate.
        threat = FixedGapThreat(g, va)
        fast_stack = EXACT.tolerable_latency(ego(v), threat, 1.0 / 30.0)
        slow_stack = EXACT.tolerable_latency(ego(v), threat, l0)
        assert (
            slow_stack.latency_or_zero() >= fast_stack.latency_or_zero() - 1e-9
        )
