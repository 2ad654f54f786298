"""EvaluationTick / EvaluationSeries container behaviour."""

import pytest

from repro.core.evaluator import EvaluationSeries, EvaluationTick
from repro.core.fpr import CameraEstimate
from repro.errors import EstimationError


def estimate(camera: str, latency: float) -> CameraEstimate:
    return CameraEstimate(
        camera=camera,
        latency=latency,
        fpr=1.0 / latency,
        binding_actor=None,
        unavoidable=False,
        actor_count=1,
    )


def tick(time: float, front: float, left: float = 1.0,
         right: float = 1.0, accel: float = 0.0) -> EvaluationTick:
    return EvaluationTick(
        time=time,
        camera_estimates={
            "front_120": estimate("front_120", front),
            "left": estimate("left", left),
            "right": estimate("right", right),
        },
        actor_latencies={"a": front},
        ego_speed=20.0,
        ego_accel=accel,
    )


@pytest.fixture
def series(params):
    return EvaluationSeries(
        scenario="synthetic",
        ticks=[
            tick(0.0, front=1.0),
            tick(0.1, front=0.25, accel=-3.0),
            tick(0.2, front=0.5, accel=-1.0),
        ],
        params=params,
        l0=1.0 / 30.0,
    )


class TestTick:
    def test_fpr_lookup(self):
        t = tick(0.0, front=0.2)
        assert t.fpr("front_120") == pytest.approx(5.0)

    def test_unknown_camera_raises(self):
        with pytest.raises(EstimationError):
            tick(0.0, front=0.2).fpr("nope")
        with pytest.raises(EstimationError):
            tick(0.0, front=0.2).latency("nope")

    def test_total_default_cameras(self):
        t = tick(0.0, front=0.5)
        assert t.total_fpr() == pytest.approx(2.0 + 1.0 + 1.0)

    def test_total_custom_subset(self):
        t = tick(0.0, front=0.5)
        assert t.total_fpr(("front_120",)) == pytest.approx(2.0)


class TestSeries:
    def test_requires_ticks(self, params):
        with pytest.raises(EstimationError):
            EvaluationSeries("x", [], params, 0.033)

    def test_times(self, series):
        assert series.times() == [0.0, 0.1, 0.2]

    def test_latency_series(self, series):
        assert series.camera_latency_series("front_120") == [1.0, 0.25, 0.5]

    def test_max_fpr_single_camera(self, series):
        assert series.max_fpr("front_120") == pytest.approx(4.0)

    def test_max_fpr_across_all(self, series):
        assert series.max_fpr() == pytest.approx(4.0)

    def test_max_total(self, series):
        assert series.max_total_fpr() == pytest.approx(6.0)

    def test_fraction(self, series):
        assert series.fraction_of_provision() == pytest.approx(6.0 / 90.0)

    def test_accel_series(self, series):
        assert series.ego_accel_series() == [0.0, -3.0, -1.0]
