"""The ego planner: perceived world model in, (accel, steer) out.

Pipeline per control tick:

1. extrapolate every confirmed actor to "now" with its estimated velocity
   (standard practice; the estimate itself is stale at low FPR),
2. select the most binding lead — the nearest actor ahead that laterally
   overlaps the ego's corridor,
3. ask the AEB monitor whether the comfortable envelope is broken; if so
   command the full braking authority, otherwise follow with IDM,
4. hold the lane with pure pursuit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Hashable

from repro.dynamics.state import VehicleSpec, VehicleState
from repro.errors import ConfigurationError
from repro.perception.world_model import PerceivedActor, WorldModel
from repro.planning.aeb import AEBMonitor, AEBParams
from repro.planning.idm import IDMParams, idm_acceleration
from repro.planning.lateral import LaneKeeper
from repro.road.lane import FrenetPoint
from repro.road.track import Road
from repro.units import wrap_angle


class PlannerMode(enum.Enum):
    """What drove the longitudinal command this tick."""

    CRUISE = "cruise"
    FOLLOW = "follow"
    EMERGENCY = "emergency"


@dataclass(frozen=True)
class PlanOutput:
    """One control decision."""

    accel: float
    steer: float
    mode: PlannerMode
    lead_id: Hashable | None = None
    lead_gap: float | None = None


@dataclass(frozen=True)
class PlannerConfig:
    """Static planner configuration for a scenario run.

    Attributes:
        road: the road being driven.
        target_lane: ego lane to hold.
        desired_speed: cruise speed (m/s).
        corridor_margin: extra lateral clearance when deciding whether an
            actor occupies the ego's corridor (m).
        assumed_actor_width: width attributed to perceived actors (the
            world model carries no extent information) (m).
    """

    road: Road
    target_lane: int
    desired_speed: float
    idm: IDMParams = field(default_factory=IDMParams)
    aeb: AEBParams = field(default_factory=AEBParams)
    corridor_margin: float = 0.3
    assumed_actor_width: float = 1.9
    assumed_actor_length: float = 4.8

    def __post_init__(self) -> None:
        if self.desired_speed <= 0.0:
            raise ConfigurationError("desired speed must be positive")
        if self.corridor_margin < 0.0:
            raise ConfigurationError("corridor margin must be non-negative")


class Planner:
    """Stateful planner for one scenario run."""

    def __init__(self, config: PlannerConfig, spec: VehicleSpec):
        self.config = config
        self.spec = spec
        self._idm = config.idm.with_desired_speed(config.desired_speed)
        self._aeb = AEBMonitor(config.aeb)
        self._lane_keeper = LaneKeeper(
            road=config.road, target_lane=config.target_lane
        )

    def plan(
        self, now: float, ego_state: VehicleState, world_model: WorldModel
    ) -> PlanOutput:
        """One control decision from the perceived world."""
        # One road projection of the ego serves lead selection and lane
        # keeping.
        ego_frenet = self.config.road.to_frenet(ego_state.position)
        lead = self._select_lead(now, ego_frenet, world_model)
        steer = self._lane_keeper.steer(ego_state, self.spec, ego_frenet)

        if lead is None:
            self._aeb.update(ego_state.speed, None, None)
            accel = idm_acceleration(ego_state.speed, self._idm)
            return PlanOutput(accel=accel, steer=steer, mode=PlannerMode.CRUISE)

        lead_id, gap, lead_speed, lead_accel = lead
        emergency = self._aeb.update(
            ego_state.speed, gap, lead_speed, lead_accel
        )
        if emergency is not None:
            return PlanOutput(
                accel=-emergency,
                steer=steer,
                mode=PlannerMode.EMERGENCY,
                lead_id=lead_id,
                lead_gap=gap,
            )
        accel = idm_acceleration(
            ego_state.speed, self._idm, gap=gap, lead_speed=lead_speed
        )
        return PlanOutput(
            accel=accel,
            steer=steer,
            mode=PlannerMode.FOLLOW,
            lead_id=lead_id,
            lead_gap=gap,
        )

    # ------------------------------------------------------------------

    def _select_lead(
        self, now: float, ego_frenet: FrenetPoint, world_model: WorldModel
    ) -> tuple[Hashable, float, float, float] | None:
        """(id, bumper gap, longitudinal speed, accel) of the binding lead."""
        road = self.config.road
        corridor = (
            (self.spec.width + self.config.assumed_actor_width) / 2.0
            + self.config.corridor_margin
        )
        half_lengths = (self.spec.length + self.config.assumed_actor_length) / 2.0

        best: tuple[Hashable, float, float, float] | None = None
        for actor in world_model:
            position = actor.extrapolated_position(now)
            frenet = road.to_frenet(position)
            if abs(frenet.d - ego_frenet.d) > corridor:
                continue
            ahead = frenet.s - ego_frenet.s
            if ahead <= 0.0:
                continue
            gap = ahead - half_lengths
            longitudinal_speed = self._longitudinal_speed(actor, frenet.s, now)
            if best is None or gap < best[1]:
                best = (actor.actor_id, gap, longitudinal_speed, actor.accel)
        return best

    def _longitudinal_speed(
        self, actor: PerceivedActor, station: float, now: float
    ) -> float:
        """The actor's current speed projected along the road tangent."""
        road_heading = self.config.road.heading_at(
            min(max(station, 0.0), self.config.road.length)
        )
        relative = wrap_angle(actor.heading - road_heading)
        return actor.extrapolated_speed(now) * max(0.0, math.cos(relative))
