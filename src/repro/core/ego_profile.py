"""Closed-form ego motion during the reaction and braking windows.

The paper splits the ego's travel into ``d_e1`` (distance covered during
the reaction time ``t_r`` with acceleration unchanged) and ``d_e2``
(distance covered while hard-braking at ``a_b`` until the check time
``t_n``). Both are clamped constant-acceleration segments: the scalar
:class:`EgoMotion` methods build them from
:func:`repro.dynamics.longitudinal.travel`, and
:func:`ego_profile_arrays` evaluates them over whole time grids for many
ticks and reaction times at once, its coast from the one vectorized
form of the same kinematics,
:func:`repro.dynamics.longitudinal.travel_arrays`. Every latency
search, scalar or batched, takes its ego profiles from
:func:`ego_profile_arrays`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.parameters import ZhuyiParams
from repro.dynamics.longitudinal import time_to_stop, travel, travel_arrays
from repro.errors import EstimationError


def braking_deceleration(current_accel: float, params: ZhuyiParams) -> float:
    """The paper's ``a_b = max(C3, C4 * a0)``.

    ``a0`` in the paper is the ego's current *deceleration*; a currently
    accelerating ego does not weaken its braking authority, so only the
    decelerating component scales.
    """
    current_decel = max(0.0, -current_accel)
    return max(params.c3, params.c4 * current_decel)


@dataclass(frozen=True)
class EgoMotion:
    """Ego longitudinal state at ``t0`` plus the derived braking authority.

    Attributes:
        speed: ego speed at ``t0`` (m/s).
        accel: signed ego acceleration at ``t0`` (m/s^2); held constant
            through the reaction window per the paper.
        braking_decel: hard-braking deceleration ``a_b`` (m/s^2).
    """

    speed: float
    accel: float
    braking_decel: float

    def __post_init__(self) -> None:
        if self.speed < 0.0:
            raise EstimationError(f"ego speed must be non-negative: {self.speed}")
        if self.braking_decel <= 0.0:
            raise EstimationError(
                f"braking deceleration must be positive: {self.braking_decel}"
            )

    @staticmethod
    def from_state(
        speed: float, accel: float, params: ZhuyiParams
    ) -> "EgoMotion":
        """Build from the ego's current speed/accel using the paper's a_b."""
        return EgoMotion(
            speed=speed,
            accel=accel,
            braking_decel=braking_deceleration(accel, params),
        )

    def reaction_travel(self, reaction_time: float) -> tuple[float, float]:
        """``(d_e1, v_e(t_r))``: travel during the reaction window.

        The ego holds its current acceleration for ``reaction_time``
        seconds (speed clamped at zero).
        """
        if reaction_time < 0.0:
            raise EstimationError(
                f"reaction time must be non-negative: {reaction_time}"
            )
        return travel(self.speed, self.accel, reaction_time)

    def braking_travel(
        self, speed_at_reaction: float, braking_time: float
    ) -> tuple[float, float]:
        """``(d_e2, v_en)``: travel while hard-braking for ``braking_time``."""
        if braking_time < 0.0:
            raise EstimationError(
                f"braking time must be non-negative: {braking_time}"
            )
        return travel(speed_at_reaction, -self.braking_decel, braking_time)

    def total_travel(
        self, reaction_time: float, check_time: float
    ) -> tuple[float, float]:
        """``(d_e1 + d_e2, v_en)`` for a check at ``check_time >= t_r``."""
        if check_time < reaction_time:
            raise EstimationError(
                f"check time {check_time} precedes reaction time {reaction_time}"
            )
        d_e1, v_tr = self.reaction_travel(reaction_time)
        d_e2, v_en = self.braking_travel(v_tr, check_time - reaction_time)
        return d_e1 + d_e2, v_en

    def stop_time_after(self, reaction_time: float) -> float:
        """Absolute time at which the ego reaches zero speed.

        The ego coasts (current acceleration) until ``reaction_time`` and
        hard-brakes afterwards. Used to bound the ``t_n`` search.
        """
        _, v_tr = self.reaction_travel(reaction_time)
        return reaction_time + time_to_stop(v_tr, self.braking_decel)


#: Ticks x candidates x instants per block of :func:`ego_profile_arrays`.
#: Each block's temporaries (the coast terms and the candidates'
#: braking columns) stay cache-sized while one block still amortizes
#: the array calls over many ticks. Swept on the recorded calls of one
#: seed-0 pass of ``variants_warm`` and ``replay_online`` (medians of 9
#: interleaved repetitions, 2-vCPU x86-64): 131k to 262k elements ran
#: within about 2% of the best on both, 32k was 31% slower on
#: ``variants_warm`` and 1M 7% slower on ``replay_online``. The block
#: also bounds the grouped kernel's per-batch profile buffers.
_PROFILE_BLOCK_ELEMENTS = 262_144


def ego_profile_arrays(
    egos: Sequence[EgoMotion],
    reactions: np.ndarray,
    times: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Coast-then-brake ``(distance, speed)`` of many ticks and candidates.

    Each ego of ``egos`` (one per tick) holds its current acceleration
    until a candidate's reaction time ``t_r`` — the clamped coast of
    :func:`repro.dynamics.longitudinal.travel`, the speed stopped at
    zero — and hard-brakes at ``a_b`` after: the d_e1/d_e2 split of
    Equations 1-2 evaluated over the whole ``times`` grid for every
    ``(tick, candidate)`` pair at once. This is the one ego kinematics
    routine of the latency search: the scalar
    :class:`repro.core.latency.LatencySearch` is its one-tick,
    one-candidate case over its ``t_r``-inserted grid, and both wave
    kernels of :class:`repro.core.engine.LatencyEngine` build a row
    chunk's (or a batch of tick groups') profiles with one call, so no
    two paths can drift.

    Ticks are processed in blocks of about ``_PROFILE_BLOCK_ELEMENTS``
    ticks x candidates x instants. Within a block one
    :func:`repro.dynamics.longitudinal.travel_arrays` call evaluates the
    clamped coast of every tick over the instants up to the latest
    ``t_r`` and over the reactions themselves; its reaction columns are
    the braking anchors ``(d_e1, v_tr)``, bit for bit the scalar
    :meth:`EgoMotion.reaction_travel` values. The braking terms are
    evaluated only past the earliest ``t_r``, for every candidate in one
    array program; candidate ``j``'s instants up to and including its
    own ``t_r`` then take the coast values.

    Args:
        egos: ``(U,)`` ego motions, one per tick.
        reactions: ``(S,)`` candidate reaction times.
        times: ``(T,)`` ascending check instants.

    Returns:
        ``(distance, speed)``, each ``(U, S, T)``, and ``(distance_r,
        speed_r)``, each ``(U, S)``: the profile sampled at every
        candidate's own ``t_r``, where the ego is still coasting.
    """
    reactions = np.asarray(reactions, dtype=float)
    times = np.asarray(times, dtype=float)
    n_ticks, n_candidates, n_times = len(egos), reactions.size, times.size
    distance = np.empty((n_ticks, n_candidates, n_times))
    speed = np.empty_like(distance)
    distance_r = np.empty((n_ticks, n_candidates))
    speed_r = np.empty_like(distance_r)
    if n_ticks == 0:
        return distance, speed, distance_r, speed_r

    v0 = np.array([ego.speed for ego in egos], dtype=float)[:, None]
    a0 = np.array([ego.accel for ego in egos], dtype=float)[:, None]
    a_b = np.array([ego.braking_decel for ego in egos], dtype=float)

    # Candidate j brakes from the first instant strictly past its t_r;
    # its own t_r column (``t_r > t_r`` is false) samples the coast. No
    # instant before the earliest t_r brakes and none after the latest
    # coasts, so the braking terms start at the one and the coast terms
    # stop at the other.
    first_braking = np.searchsorted(times, reactions, side="right")
    k_min = int(first_braking.min(initial=n_times))
    n_coast = int(first_braking.max(initial=0))
    coasting = ~(times[k_min:n_coast] > reactions[:, None])
    tau = times[k_min:] - reactions[:, None]
    coast = np.concatenate([times[:n_coast], reactions])
    block = max(1, _PROFILE_BLOCK_ELEMENTS // max(1, n_candidates * n_times))
    for lo in range(0, n_ticks, block):
        hi = min(lo + block, n_ticks)
        coast_distance, coast_speed = travel_arrays(
            v0[lo:hi], a0[lo:hi], coast
        )
        distance_r[lo:hi] = coast_distance[:, n_coast:]
        speed_r[lo:hi] = coast_speed[:, n_coast:]
        d_e1, v_tr = distance_r[lo:hi, :, None], speed_r[lo:hi, :, None]
        distance[lo:hi, :, :k_min] = coast_distance[:, None, :k_min]
        speed[lo:hi, :, :k_min] = coast_speed[:, None, :k_min]
        # The braking arithmetic past the earliest t_r, then the coast
        # again on each candidate's instants up to its own t_r.
        v_brake = speed[lo:hi, :, k_min:]
        np.multiply(a_b[lo:hi, None, None], tau, out=v_brake)
        np.subtract(v_tr, v_brake, out=v_brake)
        np.maximum(0.0, v_brake, out=v_brake)
        d_brake = distance[lo:hi, :, k_min:]
        np.square(v_brake, out=d_brake)
        np.subtract(v_tr**2, d_brake, out=d_brake)
        np.divide(d_brake, 2.0 * a_b[lo:hi, None, None], out=d_brake)
        np.add(d_e1, d_brake, out=d_brake)
        np.copyto(
            d_brake[..., : n_coast - k_min],
            coast_distance[:, None, k_min:n_coast],
            where=coasting,
        )
        np.copyto(
            v_brake[..., : n_coast - k_min],
            coast_speed[:, None, k_min:n_coast],
            where=coasting,
        )
    return distance, speed, distance_r, speed_r
