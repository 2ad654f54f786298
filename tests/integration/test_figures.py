"""Figures 4-7 series extraction."""

import pytest

from repro.analysis.figures import (
    decel_correlation,
    offline_figure_series,
    online_figure_series,
)
from repro.core.evaluator import OfflineEvaluator
from repro.errors import ConfigurationError
from repro.perception.sensor import ANALYZED_CAMERAS
from repro.scenarios.catalog import build_scenario


@pytest.fixture(scope="module")
def fig4():
    return offline_figure_series("cut_out_fast", seed=0, stride=0.2)


@pytest.fixture(scope="module")
def fig7():
    return online_figure_series("cut_in", seed=0, period=0.2)


class TestFigure4:
    def test_collision_free_at_30(self, fig4):
        assert not fig4.collided

    def test_front_camera_tightest(self, fig4):
        # "the front camera processing requires 167 ms in some time-steps
        # ... the tolerable latency for side cameras is >= 500 ms".
        assert fig4.min_latency("front_120") < 0.2
        assert fig4.min_latency("left") >= 0.5
        assert fig4.min_latency("right") >= 0.5

    def test_times_in_milliseconds(self, fig4):
        assert fig4.times_ms[0] == 0
        assert fig4.times_ms[-1] > 10_000  # tens of seconds

    def test_strong_decel_correlation(self, fig4):
        # "a strong correlation between the front camera FPR
        # requirements and ego deceleration".
        assert decel_correlation(fig4) > 0.5

    def test_unknown_camera_rejected(self, fig4):
        with pytest.raises(ConfigurationError):
            fig4.latency("bumper_cam")


class TestFigure7:
    def test_online_mode_labelled(self, fig7):
        assert fig7.mode == "online"

    def test_estimates_bounded(self, fig7, params):
        series = fig7.latency("front_120")
        assert all(0.0 <= value <= params.l_max for value in series)

    def test_cut_in_binds_online_too(self, fig7):
        assert fig7.min_latency("front_120") < 0.5

    def test_estimates_safe_for_operation(self, fig7):
        # "the estimates are low-enough for safe operations": the run at
        # 30 FPR stayed collision-free while the demand never exceeded
        # the operating rate.
        assert not fig7.collided
        assert fig7.max_fpr("front_120") <= 30.0 + 1e-6


class TestEquation5Rates:
    def test_figure_rates_are_the_evaluator_rates(self):
        # cut_out_fast at 5 FPR has unavoidable ticks: Equation 5 caps
        # their rate at the model's 30, where 1/latency reads 1000.
        figure = offline_figure_series("cut_out_fast", seed=0, fpr=5.0)
        built = build_scenario("cut_out_fast", seed=0)
        series = OfflineEvaluator(road=built.road, stride=0.1).evaluate(
            built.run(fpr=5.0)
        )
        for camera in ANALYZED_CAMERAS:
            assert figure.max_fpr(camera) == series.max_fpr(camera)
            assert figure.fpr(camera) == tuple(series.camera_fpr_series(camera))
        assert figure.max_fpr("front_120") == 30.0


class TestOfflineOnlineRelationship:
    def test_same_scenario_same_event_window(self, fig4):
        # The binding moment lies inside the simulated interval, not at
        # the boundaries (the scenario script creates it).
        series = fig4.latency("front_120")
        binding = series.index(min(series))
        assert 0 < binding < len(series) - 1
