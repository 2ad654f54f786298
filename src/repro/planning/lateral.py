"""Lane keeping via pure pursuit on the lane centerline."""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.dynamics.bicycle import MAX_STEER_ANGLE
from repro.dynamics.state import VehicleSpec, VehicleState
from repro.errors import ConfigurationError
from repro.road.lane import FrenetPoint
from repro.road.track import Road


@dataclass(frozen=True)
class LaneKeeper:
    """Pure-pursuit steering toward a lookahead point on the target lane.

    Attributes:
        road: the road being driven.
        target_lane: lane index to hold.
        lookahead_time: speed-proportional lookahead (s).
        min_lookahead: lookahead floor at low speed (m).
    """

    road: Road
    target_lane: int
    lookahead_time: float = 1.2
    min_lookahead: float = 6.0

    def __post_init__(self) -> None:
        if self.lookahead_time <= 0.0 or self.min_lookahead <= 0.0:
            raise ConfigurationError("lookahead settings must be positive")
        # Validate the lane index eagerly.
        self.road.lane_offset(self.target_lane)

    def steer(
        self,
        state: VehicleState,
        spec: VehicleSpec,
        frenet: FrenetPoint | None = None,
    ) -> float:
        """Steering angle (radians) for the current state.

        ``frenet`` is the road projection of ``state.position`` when the
        caller has already computed it.
        """
        if frenet is None:
            frenet = self.road.to_frenet(state.position)
        lookahead = max(self.min_lookahead, state.speed * self.lookahead_time)
        target_s = min(frenet.s + lookahead, self.road.length)
        target = self.road.to_world(
            FrenetPoint(target_s, self.road.lane_offset(self.target_lane))
        )
        local = state.frame().to_local(target)
        distance_sq = local.norm_sq()
        if distance_sq < 1e-6:
            return 0.0
        # Pure pursuit: curvature = 2*y / L^2 in the body frame.
        curvature = 2.0 * local.y / distance_sq
        steer = math.atan(spec.wheelbase * curvature)
        return min(max(steer, -MAX_STEER_ANGLE), MAX_STEER_ANGLE)
