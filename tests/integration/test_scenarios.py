"""Scenario catalog: construction and basic closed-loop sanity."""

import pytest

from repro import SCENARIO_NAMES, build_scenario
from repro.errors import ConfigurationError
from repro.units import mph_to_mps


class TestCatalog:
    def test_all_nine_scenarios_present(self):
        assert len(SCENARIO_NAMES) == 9
        assert set(SCENARIO_NAMES) == {
            "cut_out", "cut_out_fast", "cut_in", "challenging_cut_in",
            "challenging_cut_in_curved", "vehicle_following",
            "front_right_activity_1", "front_right_activity_2",
            "front_right_activity_3",
        }

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            build_scenario("warp_drive")

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_builds_and_has_actors(self, name):
        scenario = build_scenario(name, seed=0)
        actors = scenario.build_actors()
        assert 1 <= len(actors) <= 4
        ids = [actor.actor_id for actor in actors]
        assert len(set(ids)) == len(ids)

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_ego_initial_state_on_road(self, name):
        scenario = build_scenario(name, seed=0)
        state = scenario.ego_initial_state()
        assert scenario.road.on_road(state.position)
        assert state.speed == pytest.approx(
            mph_to_mps(scenario.spec.ego_speed_mph)
        )

    def test_run_rejects_unrunnable_fpr(self, unrunnable_fpr):
        # Refused before the first step, not run at a clamped rate.
        steps = []

        class StepRecorder:
            def on_step(self, now, simulator):
                steps.append(now)

        with pytest.raises(ConfigurationError, match="FPR must be within"):
            build_scenario("cut_in", seed=0).run(
                fpr=unrunnable_fpr, hooks=[StepRecorder()]
            )
        assert steps == []

    def test_same_seed_same_choreography(self):
        a = build_scenario("cut_in", seed=3).build_actors()
        b = build_scenario("cut_in", seed=3).build_actors()
        assert [x.station for x in a] == [y.station for y in b]
        assert [x.speed for x in a] == [y.speed for y in b]

    def test_different_seed_different_choreography(self):
        a = build_scenario("cut_in", seed=0).build_actors()
        b = build_scenario("cut_in", seed=1).build_actors()
        assert [x.station for x in a] != [y.station for y in b]

    def test_metadata_recorded(self, cut_in_trace_30):
        assert cut_in_trace_30.metadata["ego_speed_mph"] == 70.0
        assert cut_in_trace_30.metadata["paper_mrf"] == "<1"
        assert "activity" in cut_in_trace_30.metadata


class TestClosedLoopAt30:
    def test_cut_in_collision_free(self, cut_in_trace_30):
        assert not cut_in_trace_30.has_collision

    def test_cut_out_collision_free(self, cut_out_trace_30):
        assert not cut_out_trace_30.has_collision

    def test_vehicle_following_collision_free(
        self, vehicle_following_trace_30
    ):
        assert not vehicle_following_trace_30.has_collision

    def test_nominal_fpr_recorded(self, cut_in_trace_30):
        assert cut_in_trace_30.nominal_fpr == 30.0

    def test_cut_in_actor_actually_cuts_in(self, cut_in_trace_30):
        trace = cut_in_trace_30
        road_y = [step.actors["cutter"].position.y for step in trace.steps]
        assert min(road_y) < -3.0  # started in the right lane
        assert abs(road_y[-1]) < 0.5  # ended in the ego's lane

    def test_vehicle_following_lead_stops(self, vehicle_following_trace_30):
        trace = vehicle_following_trace_30
        assert trace.steps[-1].actors["lead"].speed == pytest.approx(0.0, abs=0.1)

    def test_ego_brakes_in_cut_out(self, cut_out_trace_30):
        # At 20 mph the revealed obstacle needs only a moderate stop —
        # but the ego must clearly brake and come to rest behind it.
        accels = [step.ego.accel for step in cut_out_trace_30.steps]
        assert min(accels) < -1.0
        assert cut_out_trace_30.steps[-1].ego.speed < 0.5

    def test_cut_out_obstacle_never_moves(self, cut_out_trace_30):
        xs = [
            step.actors["obstacle"].position.x
            for step in cut_out_trace_30.steps
        ]
        assert max(xs) - min(xs) < 0.01


@pytest.mark.slow
class TestMRFMechanics:
    def test_cut_out_fast_unsafe_at_low_fpr(self):
        trace = build_scenario("cut_out_fast", seed=0).run(fpr=2.0)
        assert trace.has_collision

    def test_cut_out_fast_safe_at_high_fpr(self):
        trace = build_scenario("cut_out_fast", seed=0).run(fpr=10.0)
        assert not trace.has_collision

    def test_vehicle_following_safe_even_at_1_fpr(self):
        trace = build_scenario("vehicle_following", seed=0).run(fpr=1.0)
        assert not trace.has_collision

    def test_activity_scenarios_safe_at_1_fpr(self):
        for name in ("front_right_activity_1", "front_right_activity_2"):
            trace = build_scenario(name, seed=0).run(fpr=1.0)
            assert not trace.has_collision, name
