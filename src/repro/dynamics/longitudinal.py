"""Closed-form longitudinal kinematics with a stop at zero speed.

These are the building blocks of the paper's Equations 1-3: distance
covered during the reaction window (``d_e1``), braking distance
(``d_e2``) and end speed (``v_en``). Vehicles never reverse, so constant
acceleration integration is clamped at zero speed.
"""

from __future__ import annotations


import numpy as np


def travel(
    speed: float, accel: float, duration: float, max_speed: float | None = None
) -> tuple[float, float]:
    """Distance travelled and end speed under constant acceleration.

    Speed is clamped at zero (the vehicle stops, it does not reverse) and
    optionally at ``max_speed`` (the vehicle stops accelerating at its
    top speed). Returns ``(distance, end_speed)``.

    Raises:
        ValueError: on negative inputs that have no physical meaning.
    """
    if speed < 0.0:
        raise ValueError(f"speed must be non-negative, got {speed}")
    if duration < 0.0:
        raise ValueError(f"duration must be non-negative, got {duration}")
    if duration == 0.0:
        return 0.0, speed

    distance = 0.0
    remaining = duration
    current = speed

    if accel < 0.0:
        time_to_zero = current / -accel
        if time_to_zero <= remaining:
            distance += current * time_to_zero + 0.5 * accel * (
                time_to_zero * time_to_zero
            )
            return distance, 0.0
        distance += current * remaining + 0.5 * accel * (remaining * remaining)
        return distance, current + accel * remaining

    if accel > 0.0 and max_speed is not None and current < max_speed:
        time_to_cap = (max_speed - current) / accel
        if time_to_cap < remaining:
            distance += current * time_to_cap + 0.5 * accel * (
                time_to_cap * time_to_cap
            )
            remaining -= time_to_cap
            current = max_speed
            return distance + current * remaining, current
    elif accel > 0.0 and max_speed is not None and current >= max_speed:
        return current * remaining, current

    distance += current * remaining + 0.5 * accel * (remaining * remaining)
    return distance, current + accel * remaining


def travel_arrays(
    speed,
    accel,
    duration,
    max_speed: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`travel` over broadcastable array inputs.

    The one array form of the clamped coast: every element of the
    returned ``(distance, end_speed)`` arrays equals, bit for bit, the
    scalar :func:`travel` call at that element's inputs. The predictors'
    batch rollouts, the ego profiles and braking anchors of
    :func:`repro.core.ego_profile.ego_profile_arrays` and the scan
    horizons of :meth:`repro.core.engine.LatencyEngine.trace_grid` all
    take their clamped coast from it.

    The branch is decided per (speed, accel) pair, at the shape those
    two inputs broadcast to, as the time ``t_limit`` at which the
    clamped speed reaches its limit: the time to zero when braking, the
    time to ``max_speed`` when accelerating below it, and never
    otherwise (at or over the cap the speed holds, so the acceleration
    term is dropped). Each element evaluates one closed form up to
    ``min(duration, t_limit)``; only elements past their limit cruise
    at the cap and end at the limit speed. A ``(ticks, 1)`` speed column
    against an ``(instants,)`` duration row so decides its branches
    once per tick.

    Raises:
        ValueError: on negative speeds or durations anywhere in the
            batch, mirroring the scalar validation.
    """
    v0 = np.asarray(speed, dtype=float)
    a = np.asarray(accel, dtype=float)
    t = np.asarray(duration, dtype=float)
    if (v0 < 0.0).any():
        raise ValueError("speed must be non-negative")
    if (t < 0.0).any():
        raise ValueError("duration must be non-negative")

    cap = np.inf if max_speed is None else max_speed
    braking = a < 0.0
    rising = (a > 0.0) & (v0 < cap)
    limited = braking | rising
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # Unlimited pairs' quotients are discarded; a division by a
        # subnormal acceleration overflows to inf, "never", as in the
        # scalar float arithmetic.
        t_limit = np.where(
            limited, np.where(braking, v0, cap - v0) / np.abs(a), np.inf
        )
    # At or over the cap the speed holds (and a zero acceleration adds
    # nothing either way).
    a = np.where(limited, a, 0.0)
    # travel's comparisons as one strict threshold per pair: the cap is
    # crossed at t_limit < t, zero is reached at t_limit <= t, which is
    # past the float just below t_limit. Flooring that at 0 keeps the
    # zero-duration pass-through of travel's early return.
    threshold = np.where(
        braking, np.maximum(np.nextafter(t_limit, -np.inf), 0.0), t_limit
    )

    c = np.minimum(t, t_limit)
    distance = v0 * c + 0.5 * a * (c * c)
    end_speed = np.where(
        threshold < t, np.where(braking, 0.0, cap), v0 + a * t
    )
    if np.isfinite(cap) and rising.any():
        # Cruise at the cap past the crossing; t - c is +0 before it.
        distance = distance + np.where(rising, cap, 0.0) * (t - c)
    return distance, end_speed


def braking_distance(speed: float, decel: float) -> float:
    """Distance to a full stop from ``speed`` at constant ``decel`` > 0."""
    if decel <= 0.0:
        raise ValueError(f"deceleration must be positive, got {decel}")
    if speed < 0.0:
        raise ValueError(f"speed must be non-negative, got {speed}")
    return speed * speed / (2.0 * decel)


def time_to_stop(speed: float, decel: float) -> float:
    """Time to a full stop from ``speed`` at constant ``decel`` > 0."""
    if decel <= 0.0:
        raise ValueError(f"deceleration must be positive, got {decel}")
    if speed < 0.0:
        raise ValueError(f"speed must be non-negative, got {speed}")
    return speed / decel


def clamp(value: float, lower: float, upper: float) -> float:
    """Clamp ``value`` into ``[lower, upper]``."""
    if lower > upper:
        raise ValueError(f"empty clamp interval [{lower}, {upper}]")
    return min(max(value, lower), upper)
