"""Immutable 2-D vector used throughout the library.

A tiny hand-rolled value type is used instead of raw numpy arrays for
single points: it is hashable, self-documenting (``.x``/``.y``) and cheap
for the scalar-heavy kinematics code. Bulk math (grids, sweeps) uses numpy
directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Vec2:
    """A point or direction in the 2-D plane, in metres."""

    x: float
    y: float

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __mul__(self, scalar: float) -> "Vec2":
        return Vec2(self.x * scalar, self.y * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "Vec2":
        return Vec2(self.x / scalar, self.y / scalar)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def dot(self, other: "Vec2") -> float:
        """Scalar (dot) product."""
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Vec2") -> float:
        """2-D cross product (z component of the 3-D cross product)."""
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        """Euclidean length."""
        return math.hypot(self.x, self.y)

    def norm_sq(self) -> float:
        """Squared Euclidean length (avoids the sqrt when comparing)."""
        return self.x * self.x + self.y * self.y

    def distance_to(self, other: "Vec2") -> float:
        """Euclidean distance to another point."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def normalized(self) -> "Vec2":
        """Unit vector in the same direction.

        Raises:
            ZeroDivisionError: if the vector has zero length.
        """
        length = self.norm()
        if length == 0.0:
            raise ZeroDivisionError("cannot normalize a zero-length Vec2")
        return Vec2(self.x / length, self.y / length)

    def perp(self) -> "Vec2":
        """The vector rotated +90 degrees (counter-clockwise normal)."""
        return Vec2(-self.y, self.x)

    def rotated(self, angle: float) -> "Vec2":
        """The vector rotated by ``angle`` radians counter-clockwise."""
        c, s = math.cos(angle), math.sin(angle)
        return Vec2(c * self.x - s * self.y, s * self.x + c * self.y)

    def angle(self) -> float:
        """Heading of the vector in radians, in (-pi, pi]."""
        return math.atan2(self.y, self.x)

    def lerp(self, other: "Vec2", t: float) -> "Vec2":
        """Linear interpolation: ``self`` at t=0, ``other`` at t=1."""
        return Vec2(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )

    @staticmethod
    def from_polar(radius: float, angle: float) -> "Vec2":
        """Build a vector from polar coordinates (radians)."""
        return Vec2(radius * math.cos(angle), radius * math.sin(angle))

    @staticmethod
    def unit(angle: float) -> "Vec2":
        """Unit vector at the given heading (radians)."""
        return Vec2(math.cos(angle), math.sin(angle))
