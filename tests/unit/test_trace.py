"""Scenario traces: queries and JSON round-trip."""

import pytest

from repro.dynamics.state import VehicleSpec, VehicleState
from repro.errors import TraceError
from repro.geometry.vec import Vec2
from repro.sim.collision import CollisionEvent
from repro.sim.trace import ScenarioTrace, TraceStep


def vstate(x: float, speed: float = 10.0) -> VehicleState:
    return VehicleState(Vec2(x, 0.0), 0.0, speed, 0.0)


def make_trace(collisions=(), steps=None) -> ScenarioTrace:
    if steps is None:
        steps = [
            TraceStep(
                time=i * 0.1,
                ego=vstate(i * 1.0),
                actors={"lead": vstate(50.0 + i * 0.5, speed=5.0)},
                planner_mode="cruise",
                camera_fprs={"front_120": 30.0},
            )
            for i in range(11)
        ]
    return ScenarioTrace(
        scenario="test",
        dt=0.1,
        steps=steps,
        collisions=list(collisions),
        nominal_fpr=30.0,
        seed=7,
        metadata={"note": "unit"},
    )


class TestQueries:
    def test_duration(self):
        assert make_trace().duration == pytest.approx(1.0)

    def test_actor_ids(self):
        assert make_trace().actor_ids() == ["lead"]

    def test_no_collision_flags(self):
        trace = make_trace()
        assert not trace.has_collision
        assert trace.first_collision_time is None

    def test_collision_flags(self):
        trace = make_trace(collisions=[CollisionEvent(0.7, "lead")])
        assert trace.has_collision
        assert trace.first_collision_time == 0.7

    def test_ego_trajectory_interpolates(self):
        trajectory = make_trace().ego_trajectory()
        assert trajectory.state_at(0.55).position.x == pytest.approx(5.5)

    def test_actor_trajectory(self):
        trajectory = make_trace().actor_trajectory("lead")
        assert trajectory.state_at(0.0).position.x == pytest.approx(50.0)

    def test_missing_actor_raises(self):
        with pytest.raises(TraceError):
            make_trace().actor_trajectory("ghost")

    def test_empty_trace_rejected(self):
        with pytest.raises(TraceError):
            ScenarioTrace(scenario="x", dt=0.1, steps=[])

    def test_actor_spec_default(self):
        assert make_trace().actor_spec("anything") == VehicleSpec()


class TestSerialization:
    def test_round_trip(self, tmp_path):
        trace = make_trace(collisions=[CollisionEvent(0.7, "lead")])
        path = tmp_path / "trace.json"
        trace.save_json(path)
        loaded = ScenarioTrace.load_json(path)
        assert loaded.scenario == trace.scenario
        assert loaded.nominal_fpr == 30.0
        assert loaded.seed == 7
        assert loaded.metadata == {"note": "unit"}
        assert len(loaded.steps) == len(trace.steps)
        assert loaded.has_collision
        assert loaded.first_collision_time == 0.7
        original = trace.steps[5]
        restored = loaded.steps[5]
        assert restored.time == pytest.approx(original.time)
        assert restored.ego.position.x == pytest.approx(original.ego.position.x)
        assert restored.actors["lead"].speed == pytest.approx(5.0)
        assert restored.camera_fprs == {"front_120": 30.0}

    def test_round_trip_preserves_trajectories(self, tmp_path):
        trace = make_trace()
        path = tmp_path / "trace.json"
        trace.save_json(path)
        loaded = ScenarioTrace.load_json(path)
        t = 0.37
        assert loaded.ego_trajectory().state_at(t).position.x == pytest.approx(
            trace.ego_trajectory().state_at(t).position.x
        )

    def test_malformed_json_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(TraceError):
            ScenarioTrace.load_json(path)

    def test_missing_fields_raise(self):
        with pytest.raises(TraceError):
            ScenarioTrace.from_dict({"scenario": "x"})
