"""Scripted actors: triggers, manoeuvres, Frenet kinematics."""

import pytest

from repro.actors.behavior import (
    AtTime,
    Immediately,
    Never,
    ScenarioContext,
    WhenActorGapBelow,
    WhenEgoGapBelow,
)
from repro.actors.maneuvers import (
    Cruise,
    Follow,
    PaceBeside,
    SuddenBrake,
    TriggeredLaneChange,
)
from repro.actors.vehicle import Actor
from repro.dynamics.state import VehicleState
from repro.errors import ConfigurationError
from repro.geometry.vec import Vec2
from repro.road.track import three_lane_straight_road


ROAD = three_lane_straight_road()


def make_actor(behavior, lane=1, station=100.0, speed=10.0,
               actor_id="a") -> Actor:
    return Actor(
        actor_id=actor_id, road=ROAD, behavior=behavior,
        lane=lane, station=station, speed=speed,
    )


def context(ego_x=50.0, ego_speed=10.0, actors=None) -> ScenarioContext:
    return ScenarioContext(
        road=ROAD,
        ego_state=VehicleState(Vec2(ego_x, 0.0), 0.0, ego_speed, 0.0),
        actor_states=actors or {},
    )


def run(actor: Actor, duration: float, ctx_fn=context, dt: float = 0.01):
    t = 0.0
    while t < duration:
        actor.step(t, dt, ctx_fn())
        t += dt


class TestTriggers:
    def test_immediately(self):
        trigger = Immediately()
        assert trigger.fired(0.0, None, None)

    def test_never(self):
        trigger = Never()
        assert not trigger.fired(100.0, None, None)

    def test_at_time_latches(self):
        trigger = AtTime(time=2.0)
        assert not trigger.fired(1.0, None, None)
        assert trigger.fired(2.5, None, None)
        # Latches even if time went backwards (never re-evaluates).
        assert trigger.fired(0.0, None, None)

    def test_when_ego_gap_below(self):
        trigger = WhenEgoGapBelow(gap=40.0)
        actor = make_actor(Cruise(10.0), station=100.0)
        assert not trigger.fired(0.0, actor, context(ego_x=50.0))
        assert trigger.fired(1.0, actor, context(ego_x=65.0))

    def test_when_actor_gap_below(self):
        trigger = WhenActorGapBelow(target_id="obstacle", gap=30.0)
        actor = make_actor(Cruise(10.0), station=100.0)
        ctx = context(actors={
            "obstacle": VehicleState(Vec2(125.0, 0.0), 0.0, 0.0, 0.0)
        })
        assert trigger.fired(0.0, actor, ctx)

    def test_when_actor_gap_missing_target(self):
        trigger = WhenActorGapBelow(target_id="ghost", gap=30.0)
        actor = make_actor(Cruise(10.0))
        assert not trigger.fired(0.0, actor, context())

    def test_rejects_bad_gap(self):
        with pytest.raises(ConfigurationError):
            WhenEgoGapBelow(gap=0.0)


class TestCruise:
    def test_holds_speed(self):
        actor = make_actor(Cruise(target_speed=10.0), speed=10.0)
        run(actor, 2.0)
        assert actor.speed == pytest.approx(10.0, abs=0.01)
        assert actor.station == pytest.approx(120.0, abs=0.5)

    def test_accelerates_to_target(self):
        actor = make_actor(Cruise(target_speed=15.0), speed=10.0)
        run(actor, 10.0)
        assert actor.speed == pytest.approx(15.0, abs=0.1)

    def test_stops_for_zero_target(self):
        actor = make_actor(Cruise(target_speed=0.0), speed=5.0)
        run(actor, 10.0)
        assert actor.speed == pytest.approx(0.0, abs=0.05)


class TestSuddenBrake:
    def test_brakes_to_stop_after_trigger(self):
        actor = make_actor(
            SuddenBrake(trigger=AtTime(time=1.0), decel=6.0, cruise_speed=20.0),
            speed=20.0,
        )
        run(actor, 6.0)
        assert actor.speed == 0.0

    def test_cruises_before_trigger(self):
        actor = make_actor(
            SuddenBrake(trigger=AtTime(time=50.0), decel=6.0, cruise_speed=20.0),
            speed=20.0,
        )
        run(actor, 2.0)
        assert actor.speed == pytest.approx(20.0, abs=0.01)


class TestLaneChange:
    def test_changes_lane_after_trigger(self):
        actor = make_actor(
            TriggeredLaneChange(
                trigger=AtTime(time=0.5), target_lane=0, duration=2.0
            ),
            lane=1,
            speed=10.0,
        )
        run(actor, 4.0)
        assert actor.lane == 0
        assert actor.lateral_offset == pytest.approx(-3.5)
        assert not actor.changing_lanes

    def test_midway_is_between_lanes(self):
        actor = make_actor(
            TriggeredLaneChange(
                trigger=Immediately(), target_lane=2, duration=2.0
            ),
            lane=1,
            speed=10.0,
        )
        run(actor, 1.0)
        assert 0.5 < actor.lateral_offset < 3.0
        assert actor.changing_lanes

    def test_heading_tilts_during_change(self):
        actor = make_actor(
            TriggeredLaneChange(
                trigger=Immediately(), target_lane=2, duration=2.0
            ),
            lane=1,
            speed=10.0,
        )
        run(actor, 1.0)
        assert actor.state.heading > 0.05

    def test_hands_off_to_then_behavior(self):
        actor = make_actor(
            TriggeredLaneChange(
                trigger=Immediately(),
                target_lane=0,
                duration=1.0,
                then=Cruise(target_speed=0.0),
            ),
            lane=1,
            speed=10.0,
        )
        run(actor, 12.0)
        assert actor.lane == 0
        assert actor.speed == pytest.approx(0.0, abs=0.05)

    def test_speed_held_during_change(self):
        actor = make_actor(
            TriggeredLaneChange(
                trigger=Immediately(), target_lane=0, duration=2.0,
                cruise_speed=10.0,
            ),
            lane=1,
            speed=10.0,
        )
        run(actor, 1.0)
        # Longitudinal speed holds; total speed includes lateral motion.
        assert actor.speed == pytest.approx(10.0, abs=0.05)
        assert actor.state.speed >= 10.0


class TestFollow:
    def test_follows_ego_at_idm_gap(self):
        actor = make_actor(Follow(lead_id=None), station=20.0, speed=10.0)

        state = {"x": 60.0}

        def ctx():
            state["x"] += 10.0 * 0.01
            return context(ego_x=state["x"], ego_speed=10.0)

        run(actor, 30.0, ctx_fn=ctx)
        gap = state["x"] - actor.station
        # IDM equilibrium: min_gap + v*T + vehicle length ~ 23 m.
        assert 10.0 < gap < 35.0

    def test_free_drives_without_lead(self):
        actor = make_actor(
            Follow(lead_id="ghost"), station=20.0, speed=10.0
        )
        run(actor, 1.0)
        assert actor.speed > 9.0


class TestPaceBeside:
    def test_locks_alongside_ego(self):
        actor = make_actor(
            PaceBeside(station_offset=1.0), lane=0, station=90.0, speed=10.0
        )

        state = {"x": 50.0}

        def ctx():
            state["x"] += 10.0 * 0.01
            return context(ego_x=state["x"], ego_speed=10.0)

        run(actor, 40.0, ctx_fn=ctx)
        assert actor.station - state["x"] == pytest.approx(1.0, abs=1.0)
        assert actor.speed == pytest.approx(10.0, abs=0.3)


class TestActorValidation:
    def test_rejects_negative_speed(self):
        with pytest.raises(ConfigurationError):
            make_actor(Cruise(10.0), speed=-1.0)

    def test_rejects_station_off_road(self):
        with pytest.raises(ConfigurationError):
            make_actor(Cruise(10.0), station=1e6)

    def test_station_clamped_at_road_end(self):
        actor = make_actor(Cruise(50.0), station=ROAD.length - 1.0, speed=50.0)
        run(actor, 2.0)
        assert actor.station == ROAD.length
