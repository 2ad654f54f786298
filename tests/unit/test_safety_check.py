"""The online safety check."""

import pytest

from repro.core.evaluator import EvaluationTick
from repro.core.fpr import CameraEstimate
from repro.system.safety_check import SafetyChecker


def tick(front_fpr: float, left_fpr: float = 1.0, time: float = 0.0):
    def estimate(camera: str, fpr: float) -> CameraEstimate:
        return CameraEstimate(
            camera=camera,
            latency=1.0 / fpr,
            fpr=fpr,
            binding_actor=None,
            unavoidable=False,
            actor_count=0,
        )

    return EvaluationTick(
        time=time,
        camera_estimates={
            "front_120": estimate("front_120", front_fpr),
            "left": estimate("left", left_fpr),
        },
        actor_latencies={},
        ego_speed=20.0,
        ego_accel=0.0,
    )


class TestVerdicts:
    def test_safe_when_rates_sufficient(self):
        checker = SafetyChecker()
        verdict = checker.check(tick(5.0), {"front_120": 10.0, "left": 2.0})
        assert verdict.safe
        assert verdict.alarms == ()

    def test_alarm_when_rate_below_estimate(self):
        checker = SafetyChecker()
        verdict = checker.check(tick(12.0), {"front_120": 10.0, "left": 2.0})
        assert not verdict.safe
        alarm = verdict.alarms[0]
        assert alarm.camera == "front_120"
        assert alarm.operating_fpr == 10.0
        assert alarm.required_fpr == pytest.approx(12.0)

    def test_multiple_alarms(self):
        checker = SafetyChecker()
        verdict = checker.check(tick(12.0, left_fpr=5.0),
                                {"front_120": 10.0, "left": 2.0})
        assert len(verdict.alarms) == 2

    def test_unknown_camera_ignored(self):
        checker = SafetyChecker()
        verdict = checker.check(tick(12.0), {"left": 2.0})
        assert verdict.safe  # front not operated by this system

    def test_history_and_counts(self):
        checker = SafetyChecker()
        checker.check(tick(12.0, time=0.0), {"front_120": 10.0, "left": 2.0})
        checker.check(tick(3.0, time=0.1), {"front_120": 10.0, "left": 2.0})
        assert len(checker.history) == 2
        assert [len(verdict.alarms) for verdict in checker.history] == [1, 0]
