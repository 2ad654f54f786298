"""Vehicle state containers shared by the simulator, perception and Zhuyi.

The world reference frame follows the paper (Figure 2): a 2-D top view.
``speed`` is the scalar speed along the vehicle heading (never negative —
the scenarios contain no reversing) and ``accel`` is the signed
longitudinal acceleration (negative = braking).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.geometry.boxes import OrientedBox
from repro.geometry.transforms import Frame2
from repro.geometry.vec import Vec2


@dataclass(frozen=True)
class VehicleSpec:
    """Physical description of a vehicle.

    Defaults model a mid-size passenger car; the limits bound what the
    integrators will accept, not what controllers request.
    """

    length: float = 4.8
    width: float = 1.9
    wheelbase: float = 2.9
    max_accel: float = 4.0
    max_decel: float = 9.0
    max_speed: float = 70.0

    def __post_init__(self) -> None:
        if self.length <= 0.0 or self.width <= 0.0:
            raise ConfigurationError("vehicle dimensions must be positive")
        if self.wheelbase <= 0.0 or self.wheelbase > self.length:
            raise ConfigurationError(
                f"wheelbase {self.wheelbase} inconsistent with length {self.length}"
            )
        if self.max_accel <= 0.0 or self.max_decel <= 0.0:
            raise ConfigurationError("acceleration limits must be positive")
        if self.max_speed <= 0.0:
            raise ConfigurationError("max speed must be positive")

    @cached_property
    def circumradius(self) -> float:
        """Radius of the smallest circle containing the footprint.

        :meth:`repro.geometry.boxes.OrientedBox.circumradius` of every
        footprint this spec gives, computed once per spec.
        """
        return math.hypot(self.length / 2.0, self.width / 2.0)


@dataclass(frozen=True)
class VehicleState:
    """Kinematic state of one vehicle at an instant."""

    position: Vec2
    heading: float
    speed: float
    accel: float = 0.0

    def __post_init__(self) -> None:
        if self.speed < 0.0:
            raise SimulationError(f"speed must be non-negative, got {self.speed}")

    def velocity(self) -> Vec2:
        """Velocity vector in the world frame."""
        return Vec2.unit(self.heading) * self.speed

    def frame(self) -> Frame2:
        """Body frame anchored at the vehicle centre."""
        return Frame2(self.position, self.heading)

    def footprint(self, spec: VehicleSpec) -> OrientedBox:
        """Top-view rectangle occupied by the vehicle."""
        return OrientedBox(
            center=self.position,
            heading=self.heading,
            length=spec.length,
            width=spec.width,
        )


@dataclass(frozen=True)
class TimedState:
    """A vehicle state stamped with simulation time (seconds)."""

    time: float
    state: VehicleState


class StateTrajectory:
    """A time-ordered sequence of vehicle states with interpolation.

    Used both for recorded ground-truth motion (pre-deployment traces)
    and for predicted futures (post-deployment). Queries outside the
    recorded span clamp to the endpoints, which models "the actor keeps
    its last state" without extrapolating into nonsense.
    """

    def __init__(self, samples: Iterable[TimedState]):
        ordered = sorted(samples, key=lambda ts: ts.time)
        if not ordered:
            raise ConfigurationError("a trajectory needs at least one sample")
        for earlier, later in zip(ordered, ordered[1:]):
            if later.time - earlier.time <= 0.0:
                raise ConfigurationError("trajectory timestamps must be distinct")
        self._times = [ts.time for ts in ordered]
        self._states_cache = [ts.state for ts in ordered]
        # Array views for vectorized interpolation (the latency search
        # samples thousands of points per evaluation tick).
        self._t = np.array(self._times)
        self._x = np.array([s.position.x for s in self._states_cache])
        self._y = np.array([s.position.y for s in self._states_cache])
        self._speed = np.array([s.speed for s in self._states_cache])
        self._accel = np.array([s.accel for s in self._states_cache])
        # Unwrapped headings interpolate along the shorter arc between
        # consecutive samples, matching the scalar ``state_at``.
        self._heading_raw = np.array([s.heading for s in self._states_cache])
        self._heading = np.unwrap(self._heading_raw)
        last = self._states_cache[-1]
        self._end_velocity = (
            np.cos(last.heading) * last.speed,
            np.sin(last.heading) * last.speed,
        )

    @classmethod
    def from_arrays(
        cls,
        times: np.ndarray,
        xs: np.ndarray,
        ys: np.ndarray,
        headings: np.ndarray,
        speeds: np.ndarray,
        accels: np.ndarray,
    ) -> "StateTrajectory":
        """Adopt column arrays as a trajectory without copying them.

        The zero-copy path of the trace store: memory-mapped bundle
        columns become the interpolation knots directly — no per-sample
        :class:`TimedState` objects are built, and the per-sample
        :class:`VehicleState` list materializes lazily only if a scalar
        query (``state_at`` / ``samples``) asks for it. ``headings``
        are the *raw* recorded values (wrapping happens here, exactly
        as the sample-based constructor does), so interpolation and
        lazily materialized states are bit-identical to a trajectory
        built from the equivalent samples.

        Args:
            times: strictly ascending timestamps (seconds).
            xs / ys / headings / speeds / accels: per-sample columns,
                same length as ``times``. Adopted, not copied — callers
                must not mutate them.
        """
        t = np.asarray(times, dtype=float)
        if t.ndim != 1 or t.size == 0:
            raise ConfigurationError("a trajectory needs at least one sample")
        if t.size > 1 and not np.all(np.diff(t) > 0.0):
            raise ConfigurationError("trajectory timestamps must be distinct")
        columns = [np.asarray(col, dtype=float) for col in (xs, ys, headings, speeds, accels)]
        for col in columns:
            if col.shape != t.shape:
                raise ConfigurationError(
                    f"trajectory column shape {col.shape} != time shape {t.shape}"
                )
        self = cls.__new__(cls)
        # The ndarray doubles as the bisect sequence ``state_at`` uses.
        self._times = t
        self._states_cache = None
        self._t = t
        self._x, self._y, self._heading_raw, self._speed, self._accel = columns
        self._heading = np.unwrap(self._heading_raw)
        last_heading = float(self._heading_raw[-1])
        last_speed = float(self._speed[-1])
        self._end_velocity = (
            np.cos(last_heading) * last_speed,
            np.sin(last_heading) * last_speed,
        )
        return self

    @property
    def _states(self) -> Sequence[VehicleState]:
        """Per-sample states; array-adopted trajectories build lazily."""
        if self._states_cache is None:
            self._states_cache = [
                VehicleState(
                    position=Vec2(float(x), float(y)),
                    heading=float(h),
                    speed=float(v),
                    accel=float(a),
                )
                for x, y, h, v, a in zip(
                    self._x, self._y, self._heading_raw, self._speed, self._accel
                )
            ]
        return self._states_cache

    @property
    def start_time(self) -> float:
        """Timestamp of the first sample (seconds)."""
        return self._times[0]

    @property
    def end_time(self) -> float:
        """Timestamp of the last sample (seconds)."""
        return self._times[-1]

    @property
    def duration(self) -> float:
        """Time covered by the samples (seconds)."""
        return self.end_time - self.start_time

    def __len__(self) -> int:
        return len(self._times)

    def samples(self) -> Sequence[TimedState]:
        """All samples in time order."""
        return [
            TimedState(t, s) for t, s in zip(self._times, self._states)
        ]

    def extrapolated_state_at(self, time: float) -> VehicleState:
        """Like :meth:`state_at`, but coasting past the final sample.

        Beyond the last sample the vehicle continues at its final speed
        along its final heading (zero acceleration). Freezing the
        position while keeping the speed — what plain clamping does —
        would describe a physically impossible ghost; threat evaluation
        near the end of a recorded trace needs the coasting behaviour.
        """
        if time <= self._times[-1]:
            return self.state_at(time)
        last = self._states[-1]
        dt = time - self._times[-1]
        return VehicleState(
            position=last.position + Vec2.unit(last.heading) * (last.speed * dt),
            heading=last.heading,
            speed=last.speed,
            accel=0.0,
        )

    def state_at(self, time: float) -> VehicleState:
        """State at ``time``, linearly interpolated (clamped at the ends)."""
        if time <= self._times[0]:
            return self._states[0]
        if time >= self._times[-1]:
            return self._states[-1]
        hi = bisect.bisect_right(self._times, time)
        lo = hi - 1
        t0, t1 = self._times[lo], self._times[hi]
        w = (time - t0) / (t1 - t0)
        s0, s1 = self._states[lo], self._states[hi]
        return VehicleState(
            position=s0.position.lerp(s1.position, w),
            heading=_lerp_angle(s0.heading, s1.heading, w),
            speed=s0.speed + (s1.speed - s0.speed) * w,
            accel=s0.accel + (s1.accel - s0.accel) * w,
        )

    def sample_positions(
        self, times: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized ``(xs, ys)`` at many query times, clamped at the
        ends: :meth:`sample_ticks`'s position arrays, with no states."""
        times = np.asarray(times, dtype=float)
        return (
            np.interp(times, self._t, self._x),
            np.interp(times, self._t, self._y),
        )

    def _interp_clamped(
        self, times: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Clamped linear interpolation of ``(times, x, y, speed)``."""
        times = np.asarray(times, dtype=float)
        xs, ys = self.sample_positions(times)
        return times, xs, ys, np.interp(times, self._t, self._speed)

    def sample_extrapolated(
        self, times: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized ``(x, y, speed)`` at many query times.

        Linear interpolation inside the recorded span; constant-velocity
        coasting beyond the final sample (matching
        :meth:`extrapolated_state_at`); clamped before the first sample.
        """
        times, xs, ys, speeds = self._interp_clamped(times)
        overrun = times > self._t[-1]
        if np.any(overrun):
            dt = times[overrun] - self._t[-1]
            xs[overrun] = self._x[-1] + self._end_velocity[0] * dt
            ys[overrun] = self._y[-1] + self._end_velocity[1] * dt
            speeds[overrun] = self._speed[-1]
        return xs, ys, speeds

    def sample_ticks(
        self, times: np.ndarray
    ) -> tuple[list[VehicleState], tuple[np.ndarray, np.ndarray]]:
        """States *and* position arrays from one interpolation pass.

        What :func:`repro.core.evaluator.presample_trace` consumes: the
        per-tick :class:`VehicleState` objects plus the raw ``(x, y)``
        arrays they wrap, without interpolating the trajectory twice.
        """
        from repro.units import wrap_angle

        times, xs, ys, speeds = self._interp_clamped(times)
        accels = np.interp(times, self._t, self._accel)
        headings = np.interp(times, self._t, self._heading)
        states = [
            VehicleState(
                position=Vec2(float(x), float(y)),
                heading=wrap_angle(float(h)),
                speed=float(v),
                accel=float(a),
            )
            for x, y, h, v, a in zip(xs, ys, headings, speeds, accels)
        ]
        return states, (xs, ys)

    def sample_states(self, times: np.ndarray) -> list[VehicleState]:
        """Vectorized :meth:`state_at` over many query times.

        One batched interpolation replaces per-query bisection — the
        offline evaluator presamples every evaluation tick of a trace in
        a single call. Queries outside the recorded span clamp to the
        endpoints, exactly like :meth:`state_at`.
        """
        states, _ = self.sample_ticks(times)
        return states

    def shifted(self, offset: float) -> "StateTrajectory":
        """Copy with all timestamps shifted by ``offset`` seconds."""
        return StateTrajectory(
            TimedState(t + offset, s)
            for t, s in zip(self._times, self._states)
        )

    def knot_arrays(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, tuple[float, float]]:
        """``(times, xs, ys, speeds, end_velocity)`` backing arrays.

        The raw interpolation knots :meth:`sample_extrapolated` reads —
        what :func:`repro.prediction.base.predict_trace_via_loop` stacks
        into :class:`RolloutArrays` rows so per-tick predictions can
        batch. Views, not copies: callers must not mutate them.
        """
        return self._t, self._x, self._y, self._speed, self._end_velocity


@dataclass(frozen=True)
class RolloutArrays:
    """Many trajectories in array form: one rollout per row.

    The batch counterpart of a list of per-tick
    :class:`StateTrajectory` objects built over equally-sized sample
    grids — the shape every predictor batch rollout produces (one row
    per estimation tick, ``S`` samples per row). Row ``r`` of
    :meth:`sample_extrapolated` is **bit-identical** to
    ``StateTrajectory.sample_extrapolated`` on that row's knots. Each
    row is a knot table of ``S + 1`` linear pieces, every piece a
    ``(t_anchor, v_anchor, slope)`` triple evaluated as ``slope * (q -
    t_anchor) + v_anchor`` — ``np.interp``'s own formula:

    * piece 0, before the first knot: flat at the first value;
    * pieces ``1 .. S-1``, the interior intervals, anchored at their
      left knot with ``np.interp``'s slope (computed once per piece,
      not once per query);
    * piece ``S``, from the last knot on: coasting at the row's end
      velocity, speed flat. ``end_v * dt + v_last`` is the scalar
      class's ``v_last + end_v * dt``, because IEEE addition commutes.

    A query's piece is the count of knots at or before it — the
    ``searchsorted`` bracket of ``np.interp`` — and exact knot hits
    return the knot value verbatim, as ``np.interp`` does.

    Attributes:
        times: ``(R, S)`` knot timestamps, strictly ascending per row.
        xs / ys / speeds: ``(R, S)`` knot values.
        end_vx / end_vy: ``(R,)`` coasting velocity past the last knot
            (``cos(heading) * speed`` of each row's final sample).
    """

    times: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    speeds: np.ndarray
    end_vx: np.ndarray
    end_vy: np.ndarray

    def __post_init__(self) -> None:
        if self.times.ndim != 2 or self.times.shape[1] < 1:
            raise ConfigurationError(
                "rollout arrays need a (rows, samples) time grid"
            )

    @property
    def rows(self) -> int:
        """Number of rollouts."""
        return self.times.shape[0]

    def take(self, indices: np.ndarray) -> "RolloutArrays":
        """The sub-batch at ``indices`` (row selection)."""
        return RolloutArrays(
            times=self.times[indices],
            xs=self.xs[indices],
            ys=self.ys[indices],
            speeds=self.speeds[indices],
            end_vx=self.end_vx[indices],
            end_vy=self.end_vy[indices],
        )

    def sample_extrapolated(
        self, queries: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized ``(x, y, speed)`` at per-row query times.

        ``queries`` has shape ``(R, Q)`` — row ``r`` is sampled at its
        own query instants, exactly as a per-row
        ``StateTrajectory.sample_extrapolated(queries[r])`` loop would,
        but in one array program for the whole batch.
        """
        queries = np.asarray(queries, dtype=float)
        times = self.times
        n_rows, n_knots = times.shape
        # Piece per (row, query): the count of knots <= q, np.interp's
        # bracket, offset to the row's block of the flat tables. One
        # C-level searchsorted per row beats the branchless (rows x
        # queries x knots) comparison cube by a wide margin on
        # replay-sized batches.
        pieces = np.empty(queries.shape, dtype=np.intp)
        for row in range(n_rows):
            pieces[row] = times[row].searchsorted(queries[row], side="right")
        pieces += (np.arange(n_rows) * (n_knots + 1))[:, None]
        offset = queries - _anchored(times).ravel()[pieces]
        # q - t_anchor is zero exactly on a knot hit, where np.interp
        # returns the knot value verbatim (slope * 0 + v would turn a
        # -0.0 knot value into +0.0).
        hit = offset == 0.0
        spans = np.diff(times, axis=1)
        out = []
        # The flat pieces stay exact: before the first knot 0.0 times
        # q - t < 0 is -0.0, the speed coasts on -0.0 times q - t > 0,
        # and -0.0 + v is v.
        for values, end_slope in (
            (self.xs, self.end_vx),
            (self.ys, self.end_vy),
            (self.speeds, -0.0),
        ):
            slopes = np.empty((n_rows, n_knots + 1))
            slopes[:, 0] = 0.0
            np.divide(np.diff(values, axis=1), spans, out=slopes[:, 1:-1])
            slopes[:, -1] = end_slope
            anchor = _anchored(values).ravel()[pieces]
            sampled = slopes.ravel()[pieces]
            sampled *= offset
            sampled += anchor
            np.copyto(sampled, anchor, where=hit)
            out.append(sampled)
        return tuple(out)


def _anchored(knots: np.ndarray) -> np.ndarray:
    """``(R, S + 1)`` piece anchors of ``(R, S)`` knot columns.

    Piece 0 (before the first knot) anchors at the first knot, piece
    ``p >= 1`` at knot ``p - 1``.
    """
    return np.concatenate([knots[:, :1], knots], axis=1)


def _lerp_angle(a: float, b: float, w: float) -> float:
    """Interpolate angles along the shorter arc."""
    from repro.units import wrap_angle

    return wrap_angle(a + wrap_angle(b - a) * w)
