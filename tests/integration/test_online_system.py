"""The Zhuyi-based online system in the closed loop."""

import pytest

from repro import build_scenario
from repro.core.aggregation import PercentileAggregator
from repro.core.online import OnlineEstimator
from repro.core.parameters import ZhuyiParams
from repro.prediction.maneuver import ManeuverPredictor
from repro.system import SafetyChecker, WorkPrioritizer, ZhuyiOnlineSystem


def make_system(scenario, prioritizer=None, percentile=90.0):
    params = ZhuyiParams()
    predictor = ManeuverPredictor(
        road=scenario.road, target_lane=scenario.spec.ego_lane
    )
    return ZhuyiOnlineSystem(
        estimator=OnlineEstimator(
            params=params,
            predictor=predictor,
            road=scenario.road,
            aggregator=PercentileAggregator(percentile),
        ),
        checker=SafetyChecker(),
        prioritizer=prioritizer,
        period=0.2,
    )


@pytest.fixture(scope="module")
def online_run():
    scenario = build_scenario("cut_in", seed=0)
    system = make_system(scenario)
    trace = scenario.run(fpr=30.0, hooks=[system])
    return scenario, system, trace


class TestOnlineEstimation:
    def test_ticks_recorded_at_cadence(self, online_run):
        _, system, trace = online_run
        expected = trace.duration / system.period
        assert len(system.records) == pytest.approx(expected, rel=0.05)

    def test_front_camera_series_varies(self, online_run):
        _, system, _ = online_run
        series = system.camera_latency_series("front_120")
        assert min(series) < 1.0  # the cut-in binds at some point
        assert max(series) == pytest.approx(1.0)  # and is quiet elsewhere

    def test_estimates_stay_positive(self, online_run):
        _, system, _ = online_run
        for fpr in system.camera_fpr_series("front_120"):
            assert 1.0 <= fpr <= 30.0 + 1e-6

    def test_no_alarms_at_full_rate(self, online_run):
        # Running all cameras at 30 FPR can never fall below a Zhuyi
        # estimate (the cap is 30).
        _, system, _ = online_run
        assert system.alarms() == []

    def test_run_stays_safe(self, online_run):
        _, _, trace = online_run
        assert not trace.has_collision

    def test_estimator_requires_road(self):
        with pytest.raises(TypeError, match="road"):
            OnlineEstimator(
                params=ZhuyiParams(), predictor=ManeuverPredictor()
            )


@pytest.mark.slow
class TestSafetyCheckAlarms:
    def test_underprovisioned_camera_raises_alarms(self):
        # At a uniform 5 FPR the run survives (MRF is 4), but during the
        # reveal the online estimate exceeds the operating rate — exactly
        # the condition the safety check must flag.
        scenario = build_scenario("cut_out_fast", seed=0)
        system = make_system(scenario)
        trace = scenario.run(fpr=5.0, hooks=[system])
        assert not trace.has_collision
        assert len(system.alarms()) > 0
        cameras = {
            alarm.camera
            for verdict in system.alarms()
            for alarm in verdict.alarms
        }
        assert "front_120" in cameras


@pytest.fixture(scope="module")
def prioritized_run():
    scenario = build_scenario("cut_out_fast", seed=0)
    prioritizer = WorkPrioritizer(
        total_budget=36.0, cameras=("front_120", "left", "right")
    )
    system = make_system(scenario, prioritizer=prioritizer)
    return scenario.run(fpr=12.0, hooks=[system])


@pytest.mark.slow
class TestWorkPrioritization:
    def test_rates_reallocated_toward_front(self, prioritized_run):
        trace = prioritized_run
        front_rates = [
            step.camera_fprs["front_120"] for step in trace.steps
        ]
        left_rates = [step.camera_fprs["left"] for step in trace.steps]
        # During the reveal, the front camera must have been boosted above
        # the uniform 12 FPR while a side camera gave rates up.
        assert max(front_rates) > 14.0
        assert min(left_rates) < 10.0

    def test_recorded_rates_equal_step_producers(
        self, prioritized_run, producers_agree
    ):
        # The simulator records each step's camera rates after the hooks
        # retuned them; the step objects must carry the same rates.
        trace = prioritized_run
        assert len(set(trace.columns["camera_values"].tolist())) > 2
        assert producers_agree(trace)

    def test_budget_respected_each_step(self):
        scenario = build_scenario("cut_in", seed=0)
        prioritizer = WorkPrioritizer(
            total_budget=36.0, cameras=("front_120", "left", "right")
        )
        system = make_system(scenario, prioritizer=prioritizer)
        scenario.run(fpr=12.0, hooks=[system])
        for record in system.records:
            if record.applied_rates is None:
                continue
            assert sum(record.applied_rates.values()) <= 36.0 + 1e-6
