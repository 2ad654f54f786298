"""Multi-lane roads built on a centerline.

A :class:`Road` is a centerline plus a lane layout. Lane 0 is the
rightmost lane; lateral offsets grow to the left, matching the Frenet
convention of :mod:`repro.road.lane`. The paper's scenarios use 3 lanes
of standard 3.5 m width on straight and curved highways.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.geometry.vec import Vec2
from repro.road.lane import (
    ArcCenterline,
    Centerline,
    CompositeCenterline,
    FrenetPoint,
    StraightCenterline,
)

#: Standard highway lane width used by the scenario catalog (metres).
DEFAULT_LANE_WIDTH = 3.5


@dataclass(frozen=True)
class Road:
    """A directed road: centerline, number of lanes and lane width."""

    centerline: Centerline
    lane_count: int = 3
    lane_width: float = DEFAULT_LANE_WIDTH

    def __post_init__(self) -> None:
        if self.lane_count < 1:
            raise ConfigurationError(
                f"a road needs at least one lane, got {self.lane_count}"
            )
        if self.lane_width <= 0.0:
            raise ConfigurationError(
                f"lane width must be positive, got {self.lane_width}"
            )

    @property
    def length(self) -> float:
        """Drivable length (metres)."""
        return self.centerline.length

    @property
    def width(self) -> float:
        """Total paved width (metres)."""
        return self.lane_count * self.lane_width

    def lane_offset(self, lane: int) -> float:
        """Lateral offset of a lane centre from the road centerline.

        Lane 0 is the rightmost lane (most negative offset).
        """
        self._check_lane(lane)
        return (lane - (self.lane_count - 1) / 2.0) * self.lane_width

    def lane_center(self, lane: int, s: float) -> Vec2:
        """World position of a lane centre at station ``s``."""
        return self.centerline.to_world(FrenetPoint(s, self.lane_offset(lane)))

    def lane_of_offset(self, d: float) -> int:
        """Index of the lane containing lateral offset ``d`` (clamped)."""
        raw = d / self.lane_width + (self.lane_count - 1) / 2.0
        return min(max(int(round(raw)), 0), self.lane_count - 1)

    def heading_at(self, s: float) -> float:
        """Road tangent heading at station ``s``."""
        return self.centerline.heading_at(s)

    def to_world(self, frenet: FrenetPoint) -> Vec2:
        """World position of a Frenet point on this road."""
        return self.centerline.to_world(frenet)

    def pose_at(self, s: float, d: float) -> tuple[float, float, float]:
        """``(x, y, heading)`` of the Frenet point ``(s, d)``, in floats."""
        return self.centerline.pose_at(s, d)

    def to_frenet(self, point: Vec2) -> FrenetPoint:
        """Frenet coordinates of a world point on this road."""
        return self.centerline.to_frenet(point)

    def to_frenet_batch(self, xs, ys):
        """Vectorized :meth:`to_frenet`: ``(s, d)`` arrays of many points."""
        return self.centerline.to_frenet_batch(xs, ys)

    def to_world_batch(self, stations, offsets):
        """Vectorized :meth:`to_world`: ``(x, y)`` arrays of many points."""
        return self.centerline.to_world_batch(stations, offsets)

    def heading_at_batch(self, stations):
        """Vectorized :meth:`heading_at` over an array of stations."""
        return self.centerline.heading_at_batch(stations)

    def on_road(self, point: Vec2, margin: float = 0.0) -> bool:
        """Whether a world point lies on the paved surface."""
        frenet = self.to_frenet(point)
        half_width = self.width / 2.0 + margin
        return (
            -1e-9 <= frenet.s <= self.length + 1e-9
            and abs(frenet.d) <= half_width
        )

    def _check_lane(self, lane: int) -> None:
        if not 0 <= lane < self.lane_count:
            raise ConfigurationError(
                f"lane {lane} out of range for a {self.lane_count}-lane road"
            )


def three_lane_straight_road(length: float = 2000.0) -> Road:
    """The straight 3-lane highway used by most catalog scenarios."""
    centerline = StraightCenterline(
        start=Vec2(0.0, 0.0), heading=0.0, segment_length=length
    )
    return Road(centerline=centerline, lane_count=3)


def three_lane_curved_road(
    entry_length: float = 200.0,
    radius: float = 400.0,
    arc_length: float = 1200.0,
    turn_left: bool = True,
) -> Road:
    """A 3-lane road with a straight entry followed by a constant curve.

    Used by the "Challenging cut-in on a curved road" scenario. The default
    400 m radius is a comfortable highway curve (~0.14 g lateral at 60 mph).
    """
    entry = StraightCenterline(
        start=Vec2(0.0, 0.0), heading=0.0, segment_length=entry_length
    )
    if turn_left:
        arc = ArcCenterline(
            center=Vec2(entry_length, radius),
            radius=radius,
            start_angle=-3.141592653589793 / 2.0,
            arc_length=arc_length,
            turn_left=True,
        )
    else:
        arc = ArcCenterline(
            center=Vec2(entry_length, -radius),
            radius=radius,
            start_angle=3.141592653589793 / 2.0,
            arc_length=arc_length,
            turn_left=False,
        )
    return Road(centerline=CompositeCenterline([entry, arc]), lane_count=3)
