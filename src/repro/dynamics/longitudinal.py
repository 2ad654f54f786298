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
            distance += current * time_to_zero + 0.5 * accel * time_to_zero**2
            return distance, 0.0
        distance += current * remaining + 0.5 * accel * remaining**2
        return distance, current + accel * remaining

    if accel > 0.0 and max_speed is not None and current < max_speed:
        time_to_cap = (max_speed - current) / accel
        if time_to_cap < remaining:
            distance += current * time_to_cap + 0.5 * accel * time_to_cap**2
            remaining -= time_to_cap
            current = max_speed
            return distance + current * remaining, current
    elif accel > 0.0 and max_speed is not None and current >= max_speed:
        return current * remaining, current

    distance += current * remaining + 0.5 * accel * remaining**2
    return distance, current + accel * remaining


def travel_arrays(
    speed,
    accel,
    duration,
    max_speed: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`travel` over broadcastable array inputs.

    Evaluates the same clamped constant-acceleration closed forms as the
    scalar function, branch for branch and operation for operation, so a
    single element of the returned ``(distance, end_speed)`` arrays is
    the value a scalar :func:`travel` call at that element's inputs
    would produce (the predictor batch rollouts rely on this: the same
    kernel serves one tick and a whole trace of ticks).

    Raises:
        ValueError: on negative speeds or durations anywhere in the
            batch, mirroring the scalar validation.
    """
    v0, a, t = np.broadcast_arrays(
        np.asarray(speed, dtype=float),
        np.asarray(accel, dtype=float),
        np.asarray(duration, dtype=float),
    )
    if np.any(v0 < 0.0):
        raise ValueError("speed must be non-negative")
    if np.any(t < 0.0):
        raise ValueError("duration must be non-negative")

    # Unclamped constant-acceleration integration — the default branch.
    distance = v0 * t + 0.5 * a * t**2
    end_speed = v0 + a * t

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # Braking: stop (do not reverse) at v = 0.
        braking = a < 0.0
        time_to_zero = np.where(
            braking, v0 / np.where(braking, -a, 1.0), np.inf
        )
        stopped = braking & (time_to_zero <= t)
        stop_distance = v0 * time_to_zero + 0.5 * a * time_to_zero**2
        distance = np.where(stopped, stop_distance, distance)
        end_speed = np.where(stopped, 0.0, end_speed)

        if max_speed is not None:
            # Accelerating into the cap: integrate to the crossing, then
            # coast at the cap. Already at/over the cap: hold speed.
            rising = a > 0.0
            below = rising & (v0 < max_speed)
            time_to_cap = np.where(
                below, (max_speed - v0) / np.where(rising, a, 1.0), np.inf
            )
            crossed = below & (time_to_cap < t)
            cap_distance = (
                v0 * time_to_cap
                + 0.5 * a * time_to_cap**2
                + max_speed * (t - time_to_cap)
            )
            distance = np.where(crossed, cap_distance, distance)
            end_speed = np.where(crossed, max_speed, end_speed)
            over = rising & (v0 >= max_speed)
            distance = np.where(over, v0 * t, distance)
            end_speed = np.where(over, v0, end_speed)
    # Zero-duration rows pass through as the scalar early return does:
    # a subnormal speed's time to zero can underflow to 0 and would
    # otherwise count the row as stopped.
    still = t == 0.0
    distance = np.where(still, 0.0, distance)
    end_speed = np.where(still, v0, end_speed)
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
