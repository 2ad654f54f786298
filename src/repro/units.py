"""Unit conversions and physical constants shared across the library.

All internal quantities are SI: metres, seconds, metres/second,
metres/second^2 and radians. The scenario catalog and the paper quote
speeds in miles per hour and latencies in milliseconds; these helpers keep
the conversions explicit and in one place.
"""

from __future__ import annotations

import math

#: Metres in one mile.
METERS_PER_MILE = 1609.344

#: Seconds in one hour.
SECONDS_PER_HOUR = 3600.0

#: Standard gravity, m/s^2. Used to sanity-bound braking decelerations.
GRAVITY = 9.80665


def mph_to_mps(mph: float) -> float:
    """Convert miles per hour to metres per second."""
    return mph * METERS_PER_MILE / SECONDS_PER_HOUR


def seconds_to_ms(seconds: float) -> int:
    """Convert seconds to integer milliseconds (round to nearest)."""
    return int(round(seconds * 1000.0))


def wrap_angle(angle: float) -> float:
    """Wrap an angle in radians to the interval (-pi, pi]."""
    wrapped = math.fmod(angle + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


def time_grid_count(span: float, step: float) -> int:
    """Samples on the closed-form grid ``0, step, 2*step, ... <= span``.

    The one sanctioned way to size a fixed-stride time grid: the count
    is ``floor(span / step + 1e-9) + 1`` and the instants are
    ``step * arange(count)``. Accumulating ``t += step`` instead drifts
    — repeated float addition makes the final sample's inclusion depend
    on the operand magnitudes, so near-multiple spans gain or lose a
    sample. The evaluator tick grid (PR 1) and the prediction sample
    grids use this closed form so batched consumers can rebuild any
    prefix of the grid bit-exactly.
    """
    if step <= 0.0:
        raise ValueError(f"grid step must be positive, got {step}")
    if span < 0.0:
        raise ValueError(f"grid span must be non-negative, got {span}")
    return int(math.floor(span / step + 1e-9)) + 1
