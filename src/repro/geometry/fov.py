"""Angular sectors modelling camera fields of view.

Equation 5 of the paper groups actors by "the camera's field of view";
with a top-view state representation a camera FOV is a circular sector:
a mounting bearing, an opening angle and a maximum range.

Membership is formulated without per-point transcendentals so that the
scalar test and the array kernel :func:`sector_membership` are
*bit-identical by construction*: the only per-point operations are
multiply, add, compare and a correctly-rounded square root — operations
on which numpy and the scalar ``math`` module agree to the last bit —
while every trigonometric quantity (the sector's edge cosine and the
rotation constants) is computed once per sector with ``math`` and shared
verbatim by both paths. The kernel takes those constants broadcast, so
one sector (:meth:`AngularSector.contains_local_batch`, which the
trace-level visibility tables of
:meth:`repro.perception.sensor.CameraRig.visible_actors_trace` use) and
a stack of sectors (the detection batch's gate over every due camera)
run the same arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import GeometryError
from repro.geometry.transforms import Frame2
from repro.geometry.vec import Vec2

#: Angular slack added to the sector edge so boundary actors (an actor
#: exactly on the 60-degree edge of a 120-degree camera) count as seen.
_EDGE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class AngularSector:
    """A camera FOV: sector centred on ``center_bearing`` in a body frame.

    Attributes:
        center_bearing: direction of the sector centre relative to the body
            frame's +X axis (radians; 0 = forward, +pi/2 = left).
        opening_angle: full opening angle of the sector (radians).
        max_range: maximum sensing distance (metres).
    """

    center_bearing: float
    opening_angle: float
    max_range: float

    def __post_init__(self) -> None:
        if not 0.0 < self.opening_angle <= 2.0 * 3.141592653589794:
            raise GeometryError(
                f"opening angle must be in (0, 2*pi], got {self.opening_angle}"
            )
        if self.max_range <= 0.0:
            raise GeometryError(f"max range must be positive, got {self.max_range}")

    @cached_property
    def _range_sq(self) -> float:
        """Squared range; membership compares squared distances."""
        return self.max_range * self.max_range

    @cached_property
    def _rotation(self) -> tuple[float, float]:
        """``(cos, sin)`` of the rotation by ``-center_bearing``.

        The same constants :meth:`repro.geometry.vec.Vec2.rotated` would
        derive; computed once so the scalar and batch tests share them.
        """
        return math.cos(-self.center_bearing), math.sin(-self.center_bearing)

    @cached_property
    def _cos_edge(self) -> float | None:
        """Cosine of the (tolerance-padded) half-opening, or ``None``.

        A point at bearing offset ``a`` from the sector centre is inside
        iff ``|a| <= edge``, which for ``edge < pi`` is equivalent to
        ``cos(a) >= cos(edge)`` — an inequality evaluable per point from
        coordinates alone (no arctangent). ``None`` flags ``edge >= pi``:
        every bearing is inside (a full-circle sector).
        """
        edge = self.opening_angle / 2.0 + _EDGE_TOLERANCE
        if edge >= math.pi:
            return None
        return math.cos(edge)

    def contains_local(self, point: Vec2) -> bool:
        """Whether a body-frame point falls inside the sector."""
        d2 = point.x * point.x + point.y * point.y
        if d2 > self._range_sq:
            return False
        if d2 == 0.0:
            return True
        cos_edge = self._cos_edge
        if cos_edge is None:
            return True
        c, s = self._rotation
        # The point rotated so the sector centre is the +X axis; its
        # bearing offset a then satisfies cos(a) = u / |point|.
        u = c * point.x - s * point.y
        return u >= math.sqrt(d2) * cos_edge

    @cached_property
    def membership_constants(self) -> tuple[float, float, float, float, bool]:
        """``(range_sq, cos, sin, cos_edge, full)`` for :func:`sector_membership`.

        The rotation is :attr:`_rotation`'s; a full-circle sector (no
        edge cosine) carries the placeholder edge cosine 0.0, which
        ``full`` masks out.
        """
        c, s = self._rotation
        cos_edge = self._cos_edge
        full = cos_edge is None
        return self._range_sq, c, s, 0.0 if full else cos_edge, full

    def contains_local_batch(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`contains_local` over body-frame coordinates.

        Bit-identical to the scalar test per element: both sides perform
        the same multiplies, the same correctly-rounded square root and
        the same comparisons against the same shared constants.

        Args:
            xs / ys: body-frame coordinates, any matching shape.

        Returns:
            Boolean membership array of the same shape.
        """
        return sector_membership(
            np.asarray(xs, dtype=float),
            np.asarray(ys, dtype=float),
            *self.membership_constants,
        )

    def contains(self, body: Frame2, point: Vec2) -> bool:
        """Whether a world point falls in the sector mounted on ``body``."""
        return self.contains_local(body.to_local(point))


def sector_membership(
    xs: np.ndarray,
    ys: np.ndarray,
    range_sq: float | np.ndarray,
    cos: float | np.ndarray,
    sin: float | np.ndarray,
    cos_edge: float | np.ndarray,
    full: bool | np.ndarray,
) -> np.ndarray:
    """Sector membership of body-frame points, constants broadcast.

    The one copy of the per-point membership arithmetic: squared
    distance against the squared range, then the bearing test ``u >=
    |point| * cos_edge`` on the point rotated by ``(cos, sin)`` (the
    origin always passes, and so does every bearing of a ``full``
    sector). Each constant is a sector's
    :attr:`AngularSector.membership_constants` entry — a scalar for one
    sector, or a column stacking one row per sector, so a single call
    gates several cameras against the same points.
    """
    d2 = xs * xs + ys * ys
    u = cos * xs - sin * ys
    return (d2 <= range_sq) & (
        (u >= np.sqrt(d2) * cos_edge) | (d2 == 0.0) | full
    )
