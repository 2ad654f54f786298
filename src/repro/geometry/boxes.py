"""Oriented bounding boxes and overlap tests.

Vehicles are modelled as rectangles in the top view. Collision detection
("safety" in the paper means no collision between ego and actors) uses the
separating-axis theorem (SAT) on the two boxes' edge normals, which is
exact for convex polygons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import GeometryError
from repro.geometry.vec import Vec2

#: Below this ray-direction magnitude a slab axis counts as parallel.
#: Shared with the vectorized occlusion test
#: (:func:`repro.perception.detection.occlusion_mask`), whose bit-parity
#: with :func:`segment_intersects_box` depends on using the same value.
PARALLEL_EPS = 1e-12


@dataclass(frozen=True)
class OrientedBox:
    """A rectangle centred at ``center`` with ``heading`` along its length.

    Attributes:
        center: centre of the rectangle, world frame (metres).
        heading: orientation of the length axis (radians).
        length: extent along the heading axis (metres).
        width: extent across the heading axis (metres).
    """

    center: Vec2
    heading: float
    length: float
    width: float

    def __post_init__(self) -> None:
        if self.length <= 0.0 or self.width <= 0.0:
            raise GeometryError(
                f"box dimensions must be positive, got "
                f"length={self.length}, width={self.width}"
            )

    def axes(self) -> tuple[Vec2, Vec2]:
        """The two unit edge normals (length axis and width axis)."""
        forward = Vec2.unit(self.heading)
        return forward, forward.perp()

    def half_extents(self) -> tuple[float, float]:
        """Half-length and half-width."""
        return self.length / 2.0, self.width / 2.0

    def circumradius(self) -> float:
        """Radius of the smallest circle containing the box."""
        return math.hypot(self.length / 2.0, self.width / 2.0)


def _projection_interval(box: OrientedBox, axis: Vec2) -> tuple[float, float]:
    """Project a box onto a unit axis; returns the (min, max) interval."""
    center = box.center.dot(axis)
    forward, left = box.axes()
    half_len, half_wid = box.half_extents()
    radius = abs(forward.dot(axis)) * half_len + abs(left.dot(axis)) * half_wid
    return center - radius, center + radius


def boxes_overlap(a: OrientedBox, b: OrientedBox) -> bool:
    """Exact overlap test between two oriented boxes (SAT).

    Runs a cheap bounding-circle rejection first, since in a driving
    scenario almost all pairs are far apart almost all the time.
    """
    max_gap = a.circumradius() + b.circumradius()
    if a.center.distance_to(b.center) > max_gap:
        return False
    for axis in (*a.axes(), *b.axes()):
        a_min, a_max = _projection_interval(a, axis)
        b_min, b_max = _projection_interval(b, axis)
        if a_max < b_min or b_max < a_min:
            return False
    return True


def segment_intersects_box(a: Vec2, b: Vec2, box: OrientedBox) -> bool:
    """Exact segment-vs-oriented-box intersection (slab method).

    Used by the occlusion model: a sight ray is blocked when the segment
    from the camera to the target crosses another vehicle's footprint.
    """
    # Work in the box's local frame where it is axis-aligned.
    forward, left = box.axes()
    half_len, half_wid = box.half_extents()
    delta_a = a - box.center
    delta_b = b - box.center
    local_a = Vec2(delta_a.dot(forward), delta_a.dot(left))
    local_b = Vec2(delta_b.dot(forward), delta_b.dot(left))

    direction = local_b - local_a
    t_min, t_max = 0.0, 1.0
    for start, d, half in (
        (local_a.x, direction.x, half_len),
        (local_a.y, direction.y, half_wid),
    ):
        if abs(d) < PARALLEL_EPS:
            if abs(start) > half:
                return False
            continue
        t1 = (-half - start) / d
        t2 = (half - start) / d
        if t1 > t2:
            t1, t2 = t2, t1
        t_min = max(t_min, t1)
        t_max = min(t_max, t2)
        if t_min > t_max:
            return False
    return True
