"""Rigid 2-D frames (SE(2)) for world <-> body coordinate changes.

The perception substrate expresses actor positions in each camera's frame
to test FOV membership, and the Zhuyi threat extraction expresses actor
motion in the ego's path frame. Both are plain SE(2) transforms.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geometry.vec import Vec2
from repro.units import wrap_angle


@dataclass(frozen=True)
class Frame2:
    """A rigid frame: ``origin`` and ``heading`` of the frame's +X axis.

    ``to_local`` maps world points into this frame; ``to_world`` maps
    frame-local points back. The two are exact inverses.
    """

    origin: Vec2
    heading: float

    def to_local(self, point: Vec2) -> Vec2:
        """Express a world-frame point in this frame."""
        delta = point - self.origin
        return delta.rotated(-self.heading)

    def to_world(self, point: Vec2) -> Vec2:
        """Express a frame-local point in the world frame."""
        return self.origin + point.rotated(self.heading)

    def compose(self, child: "Frame2") -> "Frame2":
        """The frame obtained by mounting ``child`` inside this frame.

        ``child`` is expressed in this frame's coordinates; the result is
        expressed in world coordinates. Used to mount cameras on the ego.
        """
        return Frame2(
            origin=self.to_world(child.origin),
            heading=wrap_angle(self.heading + child.heading),
        )

    @staticmethod
    def identity() -> "Frame2":
        """The world frame itself."""
        return Frame2(Vec2(0.0, 0.0), 0.0)
