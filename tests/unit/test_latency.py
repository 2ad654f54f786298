"""The tolerable-latency search (Equations 1-3)."""

import pytest

from repro.core.ego_profile import EgoMotion
from repro.core.latency import LatencySearch, SearchStrategy
from repro.core.parameters import ZhuyiParams
from repro.core.threat import FixedGapThreat


def ego(speed: float, accel: float = 0.0,
        params: ZhuyiParams | None = None) -> EgoMotion:
    return EgoMotion.from_state(
        speed, accel, params if params is not None else ZhuyiParams()
    )


@pytest.fixture
def search(params):
    return LatencySearch(params=params)


#: l0 of a stack already running at the grid maximum: alpha clamps to 0.
NO_ALPHA = 1.0


class TestClearCases:
    def test_huge_gap_gives_l_max(self, search, params):
        result = search.tolerable_latency(
            ego(10.0), FixedGapThreat(gap=500.0, actor_speed=8.0), NO_ALPHA
        )
        assert result.latency == pytest.approx(params.l_max)
        assert not result.unavoidable

    def test_wall_in_face_is_unavoidable(self, search):
        # Stopped actor 5 m ahead at highway speed: nothing helps.
        result = search.tolerable_latency(
            ego(30.0), FixedGapThreat(gap=5.0, actor_speed=0.0), NO_ALPHA
        )
        assert result.unavoidable
        assert result.latency is None
        assert result.latency_or_zero() == 0.0

    def test_stopped_ego_always_safe(self, search, params):
        result = search.tolerable_latency(
            ego(0.0), FixedGapThreat(gap=1.0, actor_speed=0.0), NO_ALPHA
        )
        assert result.latency == pytest.approx(params.l_max)

    def test_faster_actor_never_binds(self, search, params):
        # Ego slower than the actor: Eq 2 already holds, gap grows.
        result = search.tolerable_latency(
            ego(10.0), FixedGapThreat(gap=20.0, actor_speed=20.0), NO_ALPHA
        )
        assert result.latency == pytest.approx(params.l_max)

    def test_intermediate_case_in_grid(self, search, params):
        # 25 mph toward a stopped actor 30 m away needs a quick but
        # achievable reaction (the Figure 8 band boundary case).
        result = search.tolerable_latency(
            ego(11.2), FixedGapThreat(gap=30.0, actor_speed=0.0), NO_ALPHA
        )
        assert result.latency is not None
        assert params.l_min < result.latency <= params.l_max


class TestStoppedActorClosedForm:
    """Against a stopped actor the feasibility condition is analytic:
    v*t_r + v^2/(2*a_b) <= C1*gap."""

    @pytest.mark.parametrize("speed,gap", [(10.0, 40.0), (20.0, 90.0),
                                           (15.0, 50.0), (30.0, 150.0)])
    def test_matches_closed_form(self, params, speed, gap):
        search = LatencySearch(params=params)
        result = search.tolerable_latency(
            ego(speed), FixedGapThreat(gap=gap, actor_speed=0.0), NO_ALPHA
        )
        budget = params.c1 * gap - speed**2 / (2.0 * params.c3)
        feasible = [
            l for l in params.latency_grid() if speed * l <= budget + 1e-9
        ]
        if feasible:
            assert result.latency == pytest.approx(max(feasible))
        else:
            assert result.unavoidable


class TestAlphaEffect:
    def test_smaller_l0_shrinks_latency(self, params):
        # A faster-running stack (small l0) implies a larger alpha at any
        # probed l, hence more conservative latencies.
        search = LatencySearch(params=params)
        threat = FixedGapThreat(gap=60.0, actor_speed=0.0)
        slow_stack = search.tolerable_latency(ego(15.0), threat, 1.0)
        fast_stack = search.tolerable_latency(ego(15.0), threat, 1.0 / 30.0)
        assert fast_stack.latency <= slow_stack.latency

    def test_k_zero_matches_no_alpha(self):
        params = ZhuyiParams(k=0)
        search = LatencySearch(params=params)
        threat = FixedGapThreat(gap=60.0, actor_speed=0.0)
        with_k0 = search.tolerable_latency(ego(15.0), threat, 1.0 / 30.0)
        baseline = search.tolerable_latency(ego(15.0), threat, params.l_max)
        assert with_k0.latency == baseline.latency


class TestEgoStateEffects:
    def test_accelerating_ego_more_conservative(self, search):
        threat = FixedGapThreat(gap=50.0, actor_speed=0.0)
        cruising = search.tolerable_latency(ego(15.0, 0.0), threat, NO_ALPHA)
        accelerating = search.tolerable_latency(ego(15.0, 2.0), threat, NO_ALPHA)
        assert accelerating.latency <= cruising.latency

    def test_braking_ego_more_permissive(self, search):
        threat = FixedGapThreat(gap=40.0, actor_speed=0.0)
        cruising = search.tolerable_latency(ego(15.0, 0.0), threat, NO_ALPHA)
        braking = search.tolerable_latency(ego(15.0, -6.0), threat, NO_ALPHA)
        assert braking.latency >= cruising.latency


class TestStrategies:
    def test_check_time_not_before_reaction(self, params):
        for strategy in SearchStrategy:
            search = LatencySearch(params=params, strategy=strategy)
            result = search.tolerable_latency(
                ego(12.0), FixedGapThreat(gap=60.0, actor_speed=0.0), NO_ALPHA
            )
            if result.latency is None:
                continue
            reaction = result.latency + params.confirmation_delay(
                result.latency, NO_ALPHA
            )
            assert result.check_time >= reaction - 1e-9

    def test_iterations_reported(self, search):
        result = search.tolerable_latency(
            ego(20.0), FixedGapThreat(gap=70.0, actor_speed=0.0), NO_ALPHA
        )
        assert result.iterations > 0

    def test_paper_iterations_bounded_by_m_times_l(self, params):
        paper = LatencySearch(params=params, strategy=SearchStrategy.PAPER)
        result = paper.tolerable_latency(
            ego(30.0), FixedGapThreat(gap=5.0, actor_speed=0.0), NO_ALPHA
        )
        assert result.iterations <= params.m * params.num_latency_steps


class TestMonotonicity:
    def test_latency_grows_with_gap(self, search):
        latencies = []
        for gap in (10.0, 30.0, 60.0, 120.0, 240.0):
            result = search.tolerable_latency(
                ego(20.0), FixedGapThreat(gap=gap, actor_speed=0.0), NO_ALPHA
            )
            latencies.append(result.latency_or_zero())
        assert latencies == sorted(latencies)

    def test_latency_shrinks_with_ego_speed(self, search):
        latencies = []
        for speed in (5.0, 10.0, 20.0, 30.0):
            result = search.tolerable_latency(
                ego(speed), FixedGapThreat(gap=60.0, actor_speed=0.0), NO_ALPHA
            )
            latencies.append(result.latency_or_zero())
        assert latencies == sorted(latencies, reverse=True)

    def test_latency_grows_with_actor_speed(self, search):
        latencies = []
        for actor_speed in (0.0, 5.0, 10.0, 15.0):
            result = search.tolerable_latency(
                ego(20.0),
                FixedGapThreat(gap=50.0, actor_speed=actor_speed),
                NO_ALPHA,
            )
            latencies.append(result.latency_or_zero())
        assert latencies == sorted(latencies)
