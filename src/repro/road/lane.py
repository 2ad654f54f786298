"""Centerline primitives with exact Frenet <-> world conversions.

A centerline is an arc-length parameterized planar curve. The library
uses three kinds: straight segments, circular arcs, and composites built
by chaining the two. Lateral offsets (``d``) are positive to the *left*
of the direction of travel, matching the paper's ego-centric Y axis.

Every ``to_frenet_batch`` is *bit-identical* per element to the scalar
``to_frenet`` — a hard contract the threat corridor mask and gate table
rely on (a corridor-edge tick must land on the same side in the scalar
and batched backends). The two paths therefore share their arithmetic
exactly: distances are ``sqrt(dx*dx + dy*dy)`` (the square root is
correctly rounded, so ``math.sqrt`` and ``numpy.sqrt`` agree to the
bit, which ``math.hypot`` and ``numpy.hypot`` do not), angle wrapping
is the exact ``fmod`` formula on both sides, bearings go through
``numpy.arctan2`` in both paths, and the composite's nearest-segment
selection breaks ties bit-stably (first segment in chain order wins).
``tests/property/test_prop_frenet.py`` pins the contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.errors import GeometryError
from repro.geometry.vec import Vec2
from repro.units import wrap_angle


def _wrap_angles(angles: np.ndarray) -> np.ndarray:
    """Vectorized :func:`repro.units.wrap_angle` (same formula)."""
    wrapped = np.fmod(angles + math.pi, 2.0 * math.pi)
    return np.where(wrapped <= 0.0, wrapped + 2.0 * math.pi, wrapped) - math.pi


@dataclass(frozen=True)
class FrenetPoint:
    """Frenet coordinates on a centerline.

    Attributes:
        s: station — arc length along the centerline (metres).
        d: lateral offset, positive to the left of travel (metres).
    """

    s: float
    d: float


@runtime_checkable
class Centerline(Protocol):
    """Arc-length parameterized curve with Frenet conversions."""

    @property
    def length(self) -> float:
        """Total arc length (metres)."""
        ...

    def point_at(self, s: float) -> Vec2:
        """World position of the centerline at station ``s``."""
        ...

    def heading_at(self, s: float) -> float:
        """Tangent heading (radians) at station ``s``."""
        ...

    def curvature_at(self, s: float) -> float:
        """Signed curvature at ``s`` (positive = turning left)."""
        ...

    def to_world(self, frenet: FrenetPoint) -> Vec2:
        """World position of a Frenet point."""
        ...

    def pose_at(self, s: float, d: float) -> tuple[float, float, float]:
        """``(x, y, heading)`` of the Frenet point ``(s, d)``, in floats.

        :meth:`to_world`'s position and :meth:`heading_at`'s heading at
        station ``s`` (both reuse it where the heading is computed):
        one segment lookup and no intermediate objects, for the
        per-step actor poses.
        """
        ...

    def to_frenet(self, point: Vec2) -> FrenetPoint:
        """Frenet coordinates of the closest centerline point."""
        ...

    def to_frenet_batch(
        self, xs: np.ndarray, ys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`to_frenet`: ``(s, d)`` arrays of many points.

        The per-point projection is the interpreter hot spot of threat
        gating and corridor masking; every centerline provides a pure
        array version so those layers never loop in Python.
        """
        ...

    def to_world_batch(
        self, stations: np.ndarray, offsets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`to_world`: ``(x, y)`` arrays of many points.

        The inverse batch kernel: the lane-change prediction rollout
        maps whole (station, offset) grids back to world coordinates.
        Elementwise-pure, so one evaluation over a trace of ticks equals
        a per-tick loop bit for bit (the scalar predictor path calls
        the same kernel on single-row grids).
        """
        ...

    def heading_at_batch(self, stations: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`heading_at` over an array of stations."""
        ...


@dataclass(frozen=True)
class StraightCenterline:
    """A straight segment starting at ``start`` with constant ``heading``."""

    start: Vec2
    heading: float
    segment_length: float

    def __post_init__(self) -> None:
        if self.segment_length <= 0.0:
            raise GeometryError(
                f"centerline length must be positive, got {self.segment_length}"
            )

    @property
    def length(self) -> float:
        return self.segment_length

    def point_at(self, s: float) -> Vec2:
        return self.start + Vec2.unit(self.heading) * s

    def heading_at(self, s: float) -> float:
        return self.heading

    def curvature_at(self, s: float) -> float:
        return 0.0

    def to_world(self, frenet: FrenetPoint) -> Vec2:
        x, y, _ = self.pose_at(frenet.s, frenet.d)
        return Vec2(x, y)

    def pose_at(self, s: float, d: float) -> tuple[float, float, float]:
        cos_h, sin_h = math.cos(self.heading), math.sin(self.heading)
        # start + tangent * s + perp * d with tangent (cos, sin) and perp
        # (-sin, cos), the operation order to_world_batch shares.
        return (
            self.start.x + cos_h * s + -sin_h * d,
            self.start.y + sin_h * s + cos_h * d,
            self.heading,
        )

    def to_frenet(self, point: Vec2) -> FrenetPoint:
        # to_frenet_batch's arithmetic, in floats.
        cos_h, sin_h = math.cos(self.heading), math.sin(self.heading)
        dx = point.x - self.start.x
        dy = point.y - self.start.y
        return FrenetPoint(
            s=dx * cos_h + dy * sin_h, d=dx * -sin_h + dy * cos_h
        )

    def to_frenet_batch(
        self, xs: np.ndarray, ys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        cos_h, sin_h = math.cos(self.heading), math.sin(self.heading)
        dx = np.asarray(xs, dtype=float) - self.start.x
        dy = np.asarray(ys, dtype=float) - self.start.y
        return dx * cos_h + dy * sin_h, dx * -sin_h + dy * cos_h

    def to_world_batch(
        self, stations: np.ndarray, offsets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        cos_h, sin_h = math.cos(self.heading), math.sin(self.heading)
        s = np.asarray(stations, dtype=float)
        d = np.asarray(offsets, dtype=float)
        # start + tangent * s + perp * d with tangent (cos, sin) and
        # perp (-sin, cos), in the scalar to_world's operation order.
        return (
            self.start.x + cos_h * s + -sin_h * d,
            self.start.y + sin_h * s + cos_h * d,
        )

    def heading_at_batch(self, stations: np.ndarray) -> np.ndarray:
        return np.full(np.shape(np.asarray(stations, dtype=float)), self.heading)


@dataclass(frozen=True)
class ArcCenterline:
    """A circular arc.

    Attributes:
        center: centre of the circle (world frame).
        radius: circle radius (metres), strictly positive.
        start_angle: polar angle (radians) of the arc's start point as seen
            from ``center``.
        arc_length: arc length (metres), strictly positive.
        turn_left: True for a counter-clockwise arc (curving left).
    """

    center: Vec2
    radius: float
    start_angle: float
    arc_length: float
    turn_left: bool = True

    def __post_init__(self) -> None:
        if self.radius <= 0.0:
            raise GeometryError(f"arc radius must be positive, got {self.radius}")
        if self.arc_length <= 0.0:
            raise GeometryError(
                f"arc length must be positive, got {self.arc_length}"
            )

    @property
    def length(self) -> float:
        return self.arc_length

    def _angle_at(self, s: float) -> float:
        sweep = s / self.radius
        return self.start_angle + (sweep if self.turn_left else -sweep)

    @cached_property
    def _far_side(self) -> float:
        """Wrapped sweeps below this lie one turn up, past the arc's end.

        A bearing's sweep wraps into ``(-pi, pi]``, which holds an arc
        of at most half a turn. A longer arc's far part wraps below
        zero, so a bearing is taken on the turn nearer the arc: the two
        ends are equally near at half the arc's sweep minus ``pi``. An
        arc of a full turn or more covers its own start, and every
        bearing stays on its first turn. ``-inf`` (no bearing moves)
        for arcs of half a turn or less.
        """
        sweep = self.arc_length / self.radius
        if sweep <= math.pi:
            return -math.inf
        return min(0.5 * sweep - math.pi, 0.0)

    def point_at(self, s: float) -> Vec2:
        return self.center + Vec2.from_polar(self.radius, self._angle_at(s))

    def heading_at(self, s: float) -> float:
        return self.pose_at(s, 0.0)[2]

    def curvature_at(self, s: float) -> float:
        return (1.0 if self.turn_left else -1.0) / self.radius

    def to_world(self, frenet: FrenetPoint) -> Vec2:
        x, y, _ = self.pose_at(frenet.s, frenet.d)
        return Vec2(x, y)

    def pose_at(self, s: float, d: float) -> tuple[float, float, float]:
        # For a left turn the leftward normal points toward the centre, so
        # a positive d shrinks the radius; for a right turn it grows it.
        angle = self._angle_at(s)
        if self.turn_left:
            effective_radius = self.radius - d
        else:
            effective_radius = self.radius + d
        if effective_radius <= 0.0:
            raise GeometryError(
                f"lateral offset {d} exceeds arc radius {self.radius}"
            )
        offset = math.pi / 2.0 if self.turn_left else -math.pi / 2.0
        return (
            self.center.x + effective_radius * math.cos(angle),
            self.center.y + effective_radius * math.sin(angle),
            wrap_angle(angle + offset),
        )

    def to_frenet(self, point: Vec2) -> FrenetPoint:
        dx = point.x - self.center.x
        dy = point.y - self.center.y
        # sqrt-of-squares and a numpy bearing, matching to_frenet_batch
        # operation for operation (see the module docstring).
        distance = math.sqrt(dx * dx + dy * dy)
        if distance == 0.0:
            raise GeometryError("cannot project the arc centre onto the arc")
        angle = float(np.arctan2(dy, dx))
        if self.turn_left:
            sweep = wrap_angle(angle - self.start_angle)
            d = self.radius - distance
        else:
            sweep = wrap_angle(self.start_angle - angle)
            d = distance - self.radius
        if sweep < self._far_side:
            sweep += 2.0 * math.pi
        return FrenetPoint(s=sweep * self.radius, d=d)

    def to_frenet_batch(
        self, xs: np.ndarray, ys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        dx = np.asarray(xs, dtype=float) - self.center.x
        dy = np.asarray(ys, dtype=float) - self.center.y
        distance = np.sqrt(dx * dx + dy * dy)
        angle = np.arctan2(dy, dx)
        if self.turn_left:
            sweep = _wrap_angles(angle - self.start_angle)
            d = self.radius - distance
        else:
            sweep = _wrap_angles(self.start_angle - angle)
            d = distance - self.radius
        far_side = self._far_side
        if far_side > -math.inf:
            sweep = np.where(sweep < far_side, sweep + 2.0 * math.pi, sweep)
        return sweep * self.radius, d

    def to_world_batch(
        self, stations: np.ndarray, offsets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        s = np.asarray(stations, dtype=float)
        d = np.asarray(offsets, dtype=float)
        sweep = s / self.radius
        angles = self.start_angle + (sweep if self.turn_left else -sweep)
        if self.turn_left:
            effective_radius = self.radius - d
        else:
            effective_radius = self.radius + d
        if np.any(effective_radius <= 0.0):
            raise GeometryError(
                f"lateral offset exceeds arc radius {self.radius}"
            )
        return (
            self.center.x + effective_radius * np.cos(angles),
            self.center.y + effective_radius * np.sin(angles),
        )

    def heading_at_batch(self, stations: np.ndarray) -> np.ndarray:
        s = np.asarray(stations, dtype=float)
        sweep = s / self.radius
        angles = self.start_angle + (sweep if self.turn_left else -sweep)
        offset = math.pi / 2.0 if self.turn_left else -math.pi / 2.0
        return _wrap_angles(angles + offset)


class CompositeCenterline:
    """Centerline built by chaining segments end to end.

    Each appended segment must start where the previous one ends (within a
    small tolerance) with a matching heading, so station is continuous.
    """

    _JOIN_TOLERANCE = 1e-6

    def __init__(self, segments: Sequence[Centerline]):
        if not segments:
            raise GeometryError("composite centerline needs at least one segment")
        self._segments = list(segments)
        self._offsets: list[float] = []
        running = 0.0
        for index, segment in enumerate(self._segments):
            if index > 0:
                prev = self._segments[index - 1]
                gap = prev.point_at(prev.length).distance_to(segment.point_at(0.0))
                if gap > self._JOIN_TOLERANCE:
                    raise GeometryError(
                        f"segment {index} does not join the previous one "
                        f"(gap {gap:.3g} m)"
                    )
                heading_gap = abs(
                    wrap_angle(
                        prev.heading_at(prev.length) - segment.heading_at(0.0)
                    )
                )
                if heading_gap > 1e-6:
                    raise GeometryError(
                        f"segment {index} heading mismatch ({heading_gap:.3g} rad)"
                    )
            self._offsets.append(running)
            running += segment.length
        self._total_length = running
        # Per arc, what to_frenet bounds its cost with: the rounding
        # scale of its point arithmetic and its two endpoints, computed
        # once by the very call the exact cost makes at a clamped
        # station. None for every other segment.
        self._arc_bounds = [
            (
                1e-9
                * (
                    1.0
                    + abs(segment.center.x)
                    + abs(segment.center.y)
                    + segment.radius
                ),
                _centerline_point(segment, 0.0),
                _centerline_point(segment, segment.length),
            )
            if isinstance(segment, ArcCenterline)
            else None
            for segment in self._segments
        ]

    @property
    def length(self) -> float:
        return self._total_length

    def _locate(self, s: float) -> tuple[Centerline, float]:
        """The segment containing station ``s`` and the local station."""
        clamped = min(max(s, 0.0), self._total_length)
        for segment, offset in zip(
            reversed(self._segments), reversed(self._offsets)
        ):
            if clamped >= offset:
                return segment, clamped - offset
        return self._segments[0], clamped

    def point_at(self, s: float) -> Vec2:
        segment, local_s = self._locate(s)
        return segment.point_at(local_s)

    def heading_at(self, s: float) -> float:
        return self.pose_at(s, 0.0)[2]

    def curvature_at(self, s: float) -> float:
        segment, local_s = self._locate(s)
        return segment.curvature_at(local_s)

    def to_world(self, frenet: FrenetPoint) -> Vec2:
        x, y, _ = self.pose_at(frenet.s, frenet.d)
        return Vec2(x, y)

    def pose_at(self, s: float, d: float) -> tuple[float, float, float]:
        segment, local_s = self._locate(s)
        return segment.pose_at(local_s, d)

    def to_frenet(self, point: Vec2) -> FrenetPoint:
        """The nearest segment's projection, as :meth:`to_frenet_batch`.

        Each segment's cost is the distance to its clamped projection
        plus any overshoot; strict ``<`` in chain order picks the
        winner. An arc's projection inside it costs its lateral offset
        ``|d|`` up to rounding, so the loop carries bounds ``|d| -+
        eps`` there and computes the exact cost (one trig call) only
        when the bounds cannot decide a comparison. Outside an arc the
        cost is exact from its cached endpoint. The winner, ties
        included, is the exact loop's.
        """
        best: FrenetPoint | None = None
        # The best cost lies in [best_lo, best_hi]; ``pending`` holds
        # what settles it exactly while only its bounds are known.
        best_lo = best_hi = math.inf
        pending = None
        for segment, offset, arc in zip(
            self._segments, self._offsets, self._arc_bounds
        ):
            local = segment.to_frenet(point)
            clamped_s = min(max(local.s, 0.0), segment.length)
            settle = None
            if arc is None:
                lo = hi = _segment_cost(segment, point, local, clamped_s)
            elif local.s < 0.0 or local.s > segment.length:
                _, first, last = arc
                end = first if local.s < 0.0 else last
                lo = hi = _segment_cost(segment, point, local, clamped_s, end)
            else:
                margin = abs(local.d)
                eps = arc[0] + 1e-9 * margin
                lo, hi = margin - eps, margin + eps
                settle = (segment, point, local, clamped_s)
            if lo >= best_hi:
                continue
            if not hi < best_lo:
                # The bounds overlap (or are NaN): compare exactly.
                if pending is not None:
                    best_lo = best_hi = _segment_cost(*pending)
                    pending = None
                if settle is not None:
                    lo = hi = _segment_cost(*settle)
                    settle = None
                # Strict < keeps the earliest segment on an exact cost
                # tie (a point equidistant from two segments near a
                # joint): the bit-stable tie-break the batch kernel
                # replays.
                if not lo < best_lo:
                    continue
            best_lo, best_hi, pending = lo, hi, settle
            best = FrenetPoint(offset + clamped_s, local.d)
        assert best is not None
        return best

    def to_frenet_batch(
        self, xs: np.ndarray, ys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        best_cost = np.full(xs.shape, math.inf)
        best_s = np.zeros(xs.shape)
        best_d = np.zeros(xs.shape)
        for segment, offset in zip(self._segments, self._offsets):
            s, d = segment.to_frenet_batch(xs, ys)
            clamped = np.clip(s, 0.0, segment.length)
            on_x, on_y = _centerline_points(segment, clamped)
            dx = xs - on_x
            dy = ys - on_y
            cost = np.sqrt(dx * dx + dy * dy)
            outside = (s < 0.0) | (s > segment.length)
            cost = cost + np.where(outside, np.abs(s - clamped), 0.0)
            # Same strict comparison, same segment order as the scalar
            # loop: ties resolve to the earliest segment in both paths.
            take = cost < best_cost
            best_cost = np.where(take, cost, best_cost)
            best_s = np.where(take, offset + clamped, best_s)
            best_d = np.where(take, d, best_d)
        return best_s, best_d

    def _locate_batch(
        self, stations: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`_locate`: ``(local clamped station, segment index)``.

        Same membership rule as the scalar reversed scan: a station
        lands on the last segment whose offset does not exceed it.
        """
        clamped = np.clip(
            np.asarray(stations, dtype=float), 0.0, self._total_length
        )
        index = (
            np.searchsorted(np.array(self._offsets), clamped, side="right") - 1
        )
        return clamped, index

    def to_world_batch(
        self, stations: np.ndarray, offsets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        s, d = np.broadcast_arrays(
            np.asarray(stations, dtype=float), np.asarray(offsets, dtype=float)
        )
        clamped, index = self._locate_batch(s)
        xs = np.empty(s.shape)
        ys = np.empty(s.shape)
        for k, (segment, offset) in enumerate(
            zip(self._segments, self._offsets)
        ):
            member = index == k
            if not member.any():
                continue
            xs[member], ys[member] = segment.to_world_batch(
                clamped[member] - offset, d[member]
            )
        return xs, ys

    def heading_at_batch(self, stations: np.ndarray) -> np.ndarray:
        s = np.asarray(stations, dtype=float)
        clamped, index = self._locate_batch(s)
        headings = np.empty(s.shape)
        for k, (segment, offset) in enumerate(
            zip(self._segments, self._offsets)
        ):
            member = index == k
            if not member.any():
                continue
            headings[member] = segment.heading_at_batch(clamped[member] - offset)
        return headings


def _segment_cost(
    segment: Centerline,
    point: Vec2,
    local: FrenetPoint,
    clamped_s: float,
    on: tuple[float, float] | None = None,
) -> float:
    """:meth:`CompositeCenterline.to_frenet`'s cost of one segment.

    The distance from ``point`` to the segment's point at the clamped
    station (``on`` when it is already known), plus the overshoot of a
    projection falling outside the segment, so interior matches win
    over endpoint extrapolations.
    """
    on_x, on_y = _centerline_point(segment, clamped_s) if on is None else on
    dx = point.x - on_x
    dy = point.y - on_y
    cost = math.sqrt(dx * dx + dy * dy)
    if local.s < 0.0 or local.s > segment.length:
        cost += abs(local.s - clamped_s)
    return cost


def _centerline_point(segment: Centerline, s: float) -> tuple[float, float]:
    """:func:`_centerline_points` at one station, as floats.

    A straight segment's point is plain multiply/add, which floats and
    numpy round alike. An arc's comes from the batch routine itself (and
    hence the same trig calls): numpy's cos/sin and libm's are not
    guaranteed to agree to the last bit, and a one-ulp cost difference
    could crown a different nearest segment at a joint.
    """
    if isinstance(segment, StraightCenterline):
        return (
            segment.start.x + math.cos(segment.heading) * s,
            segment.start.y + math.sin(segment.heading) * s,
        )
    on_x, on_y = _centerline_points(segment, np.array([s]))
    return float(on_x[0]), float(on_y[0])


def _centerline_points(
    segment: Centerline, stations: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized ``point_at`` over an array of stations."""
    if isinstance(segment, StraightCenterline):
        return (
            segment.start.x + math.cos(segment.heading) * stations,
            segment.start.y + math.sin(segment.heading) * stations,
        )
    if isinstance(segment, ArcCenterline):
        sweep = stations / segment.radius
        angles = segment.start_angle + (
            sweep if segment.turn_left else -sweep
        )
        return (
            segment.center.x + segment.radius * np.cos(angles),
            segment.center.y + segment.radius * np.sin(angles),
        )
    points = [segment.point_at(float(s)) for s in np.ravel(stations)]
    return (
        np.array([p.x for p in points]).reshape(np.shape(stations)),
        np.array([p.y for p in points]).reshape(np.shape(stations)),
    )
