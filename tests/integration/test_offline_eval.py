"""The offline (pre-deployment) evaluator on real traces."""

import pytest

from repro import OfflineEvaluator, build_scenario
from repro.core.evaluator import TraceJob, presample_trace
from repro.dynamics.state import VehicleState
from repro.errors import EstimationError
from repro.geometry.vec import Vec2
from repro.perception.sensor import ANALYZED_CAMERAS
from repro.road.track import three_lane_straight_road
from repro.sim.trace import ScenarioTrace, TraceStep


@pytest.fixture(scope="module")
def cut_in_series(cut_in_trace_30):
    scenario = build_scenario("cut_in", seed=0)
    return OfflineEvaluator(road=scenario.road).evaluate(cut_in_trace_30)


class TestSeriesStructure:
    def test_ticks_cover_trace(self, cut_in_series, cut_in_trace_30):
        times = cut_in_series.times()
        assert times[0] == pytest.approx(0.0)
        assert times[-1] == pytest.approx(cut_in_trace_30.duration, abs=0.2)

    def test_every_camera_estimated(self, cut_in_series):
        tick = cut_in_series.ticks[0]
        for camera in ("front_60", "front_120", "left", "right", "rear"):
            assert camera in tick.camera_estimates

    def test_l0_defaults_to_frame_period(self, cut_in_series):
        assert cut_in_series.l0 == pytest.approx(1.0 / 30.0)

    def test_missing_nominal_fpr_needs_explicit_l0(self, cut_in_trace_30):
        scenario = build_scenario("cut_in", seed=0)
        evaluator = OfflineEvaluator(road=scenario.road)
        cut_in_trace_30.nominal_fpr = None
        try:
            with pytest.raises(EstimationError):
                evaluator.evaluate(cut_in_trace_30)
        finally:
            cut_in_trace_30.nominal_fpr = 30.0


class TestPaperShape:
    def test_side_cameras_at_floor(self, cut_in_series):
        # "For Cut-in, the tolerable latency for side cameras is 1000 ms
        # as there are no actors on the sides."
        assert cut_in_series.max_fpr("left") == pytest.approx(1.0)
        assert cut_in_series.max_fpr("right") == pytest.approx(1.0)

    def test_front_camera_binds(self, cut_in_series):
        assert cut_in_series.max_fpr("front_120") > 1.0

    def test_latencies_within_grid(self, cut_in_series, params):
        for camera in ANALYZED_CAMERAS:
            for latency in cut_in_series.camera_latency_series(camera):
                assert 0.0 <= latency <= params.l_max + 1e-9

    def test_total_below_provision(self, cut_in_series):
        # The headline claim: peak total demand stays within 36% of a
        # 3-camera 30-FPR provision for this scenario family.
        assert cut_in_series.fraction_of_provision() <= 0.36 + 1e-6

    def test_max_total_consistent(self, cut_in_series):
        total = cut_in_series.max_total_fpr()
        per_cam_max = sum(
            cut_in_series.max_fpr(camera) for camera in ANALYZED_CAMERAS
        )
        assert total <= per_cam_max + 1e-9

    def test_estimate_exceeds_mrf(self, cut_in_series):
        # Cut-in is safe even at 1 FPR (MRF < 1); any estimate >= 1
        # certifies it. The substantive check: Zhuyi never reports less
        # than the floor.
        assert cut_in_series.max_fpr() >= 1.0


class TestEvaluatorOptions:
    def test_stride_controls_tick_count(self, cut_in_trace_30):
        scenario = build_scenario("cut_in", seed=0)
        coarse = OfflineEvaluator(road=scenario.road, stride=1.0).evaluate(
            cut_in_trace_30
        )
        fine = OfflineEvaluator(road=scenario.road, stride=0.25).evaluate(
            cut_in_trace_30
        )
        assert len(fine.ticks) > 2 * len(coarse.ticks)

    def test_explicit_l0_changes_estimates(self, cut_in_trace_30):
        scenario = build_scenario("cut_in", seed=0)
        evaluator = OfflineEvaluator(road=scenario.road, stride=0.5)
        fast = evaluator.evaluate(cut_in_trace_30, l0=1.0 / 30.0)
        slow = evaluator.evaluate(cut_in_trace_30, l0=1.0)
        # A slower-running stack yields a more permissive estimate.
        assert slow.max_fpr() <= fast.max_fpr() + 1e-9

    def test_rejects_bad_stride(self):
        with pytest.raises(EstimationError):
            OfflineEvaluator(road=three_lane_straight_road(), stride=0.0)

    def test_requires_road(self):
        with pytest.raises(TypeError, match="road"):
            OfflineEvaluator(stride=0.5)

    def test_trace_job_requires_road(self, cut_in_trace_30):
        samples = presample_trace(cut_in_trace_30, 0.5)
        with pytest.raises(TypeError, match="road"):
            TraceJob(
                trace=cut_in_trace_30,
                samples=samples,
                l0=cut_in_trace_30.default_l0(),
            )


def _synthetic_trace(times) -> ScenarioTrace:
    steps = [
        TraceStep(
            time=t,
            ego=VehicleState(Vec2(10.0 * t, 0.0), 0.0, 10.0, 0.0),
            actors={"lead": VehicleState(Vec2(60.0 + 5.0 * t, 0.0), 0.0, 5.0, 0.0)},
        )
        for t in times
    ]
    return ScenarioTrace(scenario="synthetic", dt=0.1, steps=steps, nominal_fpr=30.0)


class TestTickGrid:
    """Tick times come from start + i * stride, not float accumulation."""

    def test_stride_not_dividing_duration(self):
        # 1.0 s trace, 0.3 s stride: ticks at 0, 0.3, 0.6, 0.9 only.
        trace = _synthetic_trace([0.0, 0.5, 1.0])
        series = OfflineEvaluator(
            road=three_lane_straight_road(), stride=0.3
        ).evaluate(trace)
        assert series.times() == pytest.approx([0.0, 0.3, 0.6, 0.9])

    def test_no_tick_past_trace_end(self):
        # A trace ending just below a stride multiple must not get an
        # extra tick at the multiple — ``t0 += stride`` accumulation
        # used to walk past the recorded end.
        end = 0.9999999999
        trace = _synthetic_trace([0.0, 0.5, end])
        series = OfflineEvaluator(
            road=three_lane_straight_road(), stride=0.05
        ).evaluate(trace)
        assert len(series.ticks) == 20
        assert series.times()[-1] <= end

    def test_exact_grid_on_long_trace(self):
        # Accumulated stride drifts after hundreds of additions; the
        # closed-form grid stays exact and keeps the final tick.
        times = [i * 0.01 for i in range(3501)]  # 35 s at 10 ms
        trace = _synthetic_trace(times)
        series = OfflineEvaluator(
            road=three_lane_straight_road(), stride=0.05
        ).evaluate(trace)
        assert len(series.ticks) == 701
        for i, t in enumerate(series.times()):
            assert t == i * 0.05  # exact, not approx


class TestCutOutShape:
    def test_front_camera_demands_most(self, cut_out_trace_30):
        scenario = build_scenario("cut_out", seed=0)
        series = OfflineEvaluator(road=scenario.road).evaluate(
            cut_out_trace_30
        )
        front = series.max_fpr("front_120")
        assert front >= series.max_fpr("left")
        assert front >= series.max_fpr("right")

    def test_obstacle_is_binding_actor(self, cut_out_trace_30):
        scenario = build_scenario("cut_out", seed=0)
        series = OfflineEvaluator(road=scenario.road).evaluate(
            cut_out_trace_30
        )
        binders = {
            tick.camera_estimates["front_120"].binding_actor
            for tick in series.ticks
        }
        assert "obstacle" in binders
