"""The scripted actor vehicle.

Actors move kinematically in road Frenet coordinates: a behaviour sets a
longitudinal acceleration every step and may request a lane change, which
then runs as a smoothstep lateral profile. World pose (position, heading)
is reconstructed from the Frenet state, including the lateral-velocity
component of heading during a lane change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable

from repro.actors.behavior import ActorCommand, Behavior, ScenarioContext
from repro.dynamics.longitudinal import clamp
from repro.dynamics.profiles import smoothstep, smoothstep_slope
from repro.dynamics.state import VehicleSpec, VehicleState
from repro.errors import ConfigurationError
from repro.geometry.vec import Vec2
from repro.road.track import Road
from repro.units import wrap_angle


@dataclass
class _LaneChange:
    """An in-progress lateral manoeuvre."""

    start_time: float
    duration: float
    start_d: float
    target_d: float

    def offset_at(self, now: float) -> float:
        progress = (now - self.start_time) / self.duration
        return self.start_d + (self.target_d - self.start_d) * smoothstep(progress)

    def rate_at(self, now: float) -> float:
        progress = (now - self.start_time) / self.duration
        return (
            (self.target_d - self.start_d)
            * smoothstep_slope(progress)
            / self.duration
        )

    def done(self, now: float) -> bool:
        return now >= self.start_time + self.duration


class Actor:
    """One scripted traffic participant."""

    def __init__(
        self,
        actor_id: Hashable,
        road: Road,
        behavior: Behavior,
        lane: int,
        station: float,
        speed: float,
        spec: VehicleSpec | None = None,
    ):
        if speed < 0.0:
            raise ConfigurationError(f"actor speed must be non-negative: {speed}")
        if not 0.0 <= station <= road.length:
            raise ConfigurationError(
                f"actor station {station} outside road [0, {road.length}]"
            )
        self.actor_id = actor_id
        self.road = road
        self.behavior = behavior
        self.spec = spec if spec is not None else VehicleSpec()
        self._station = station
        self._offset = road.lane_offset(lane)
        self._speed = speed
        self._accel = 0.0
        self._lateral_rate = 0.0
        self._lane_change: _LaneChange | None = None

    # ------------------------------------------------------------------
    # read-only state
    # ------------------------------------------------------------------

    @property
    def station(self) -> float:
        """Current station along the road (m)."""
        return self._station

    @property
    def lateral_offset(self) -> float:
        """Current lateral offset from the road centerline (m)."""
        return self._offset

    @property
    def speed(self) -> float:
        """Current longitudinal speed (m/s)."""
        return self._speed

    @property
    def lane(self) -> int:
        """Index of the lane currently occupied."""
        return self.road.lane_of_offset(self._offset)

    @property
    def changing_lanes(self) -> bool:
        """Whether a lane change is in progress."""
        return self._lane_change is not None

    @property
    def state(self) -> VehicleState:
        """World-frame state reconstructed from the Frenet state."""
        # The road's to_world position and heading_at heading, from one
        # segment lookup.
        x, y, heading = self.road.pose_at(self._station, self._offset)
        if self._speed > 1e-6 and self._lateral_rate != 0.0:
            heading = wrap_angle(
                heading + math.atan2(self._lateral_rate, self._speed)
            )
        # Total speed includes the lateral component during a lane change.
        total_speed = math.hypot(self._speed, self._lateral_rate)
        return VehicleState(
            position=Vec2(x, y),
            heading=heading,
            speed=total_speed,
            accel=self._accel,
        )

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------

    def step(self, now: float, dt: float, context: ScenarioContext) -> None:
        """Advance the actor by one simulation step."""
        if dt <= 0.0:
            raise ConfigurationError(f"dt must be positive, got {dt}")
        command = self.behavior.update(now, self, context)
        self._maybe_start_lane_change(now, command)

        accel = clamp(command.accel, -self.spec.max_decel, self.spec.max_accel)
        new_speed = clamp(self._speed + accel * dt, 0.0, self.spec.max_speed)
        self._accel = (new_speed - self._speed) / dt
        self._station = min(
            self._station + 0.5 * (self._speed + new_speed) * dt,
            self.road.length,
        )
        self._speed = new_speed

        next_time = now + dt
        if self._lane_change is not None:
            self._offset = self._lane_change.offset_at(next_time)
            self._lateral_rate = self._lane_change.rate_at(next_time)
            if self._lane_change.done(next_time):
                self._offset = self._lane_change.target_d
                self._lateral_rate = 0.0
                self._lane_change = None

    def _maybe_start_lane_change(self, now: float, command: ActorCommand) -> None:
        if command.change_to_lane is None or self._lane_change is not None:
            return
        target_d = self.road.lane_offset(command.change_to_lane)
        if abs(target_d - self._offset) < 1e-9:
            return
        if command.lane_change_duration <= 0.0:
            raise ConfigurationError("lane-change duration must be positive")
        self._lane_change = _LaneChange(
            start_time=now,
            duration=command.lane_change_duration,
            start_d=self._offset,
            target_d=target_d,
        )
