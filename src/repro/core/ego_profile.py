"""Closed-form ego motion during the reaction and braking windows.

The paper splits the ego's travel into ``d_e1`` (distance covered during
the reaction time ``t_r`` with acceleration unchanged) and ``d_e2``
(distance covered while hard-braking at ``a_b`` until the check time
``t_n``). Both are clamped constant-acceleration segments, built from
:func:`repro.dynamics.longitudinal.travel`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.parameters import ZhuyiParams
from repro.dynamics.longitudinal import time_to_stop, travel
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

    def reaction_travel(
        self, reaction_time: float, speed_cap: float | None = None
    ) -> tuple[float, float]:
        """``(d_e1, v_e(t_r))``: travel during the reaction window.

        The ego holds its current acceleration for ``reaction_time``
        seconds (speed clamped at zero and optionally at ``speed_cap``).
        """
        if reaction_time < 0.0:
            raise EstimationError(
                f"reaction time must be non-negative: {reaction_time}"
            )
        return travel(self.speed, self.accel, reaction_time, speed_cap)

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
        self,
        reaction_time: float,
        check_time: float,
        speed_cap: float | None = None,
    ) -> tuple[float, float]:
        """``(d_e1 + d_e2, v_en)`` for a check at ``check_time >= t_r``."""
        if check_time < reaction_time:
            raise EstimationError(
                f"check time {check_time} precedes reaction time {reaction_time}"
            )
        d_e1, v_tr = self.reaction_travel(reaction_time, speed_cap)
        d_e2, v_en = self.braking_travel(v_tr, check_time - reaction_time)
        return d_e1 + d_e2, v_en

    def stop_time_after(
        self, reaction_time: float, speed_cap: float | None = None
    ) -> float:
        """Absolute time at which the ego reaches zero speed.

        The ego coasts (current acceleration) until ``reaction_time`` and
        hard-brakes afterwards. Used to bound the ``t_n`` search.
        """
        _, v_tr = self.reaction_travel(reaction_time, speed_cap)
        return reaction_time + time_to_stop(v_tr, self.braking_decel)


def ego_profile_arrays(
    ego: EgoMotion,
    reaction_time: float | np.ndarray,
    times: np.ndarray,
    speed_cap: float | None = None,
    anchors: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized ``(distance, speed)`` of the coast-then-brake profile.

    The ego holds its current acceleration until ``reaction_time``
    (speed clamped to ``[0, speed_cap]``) and hard-brakes at ``a_b``
    after — the d_e1/d_e2 split of Equations 1-2 evaluated over a whole
    time grid at once.

    ``reaction_time`` may be a scalar (one latency candidate) or an
    array broadcastable against ``times`` — e.g. an ``(L, 1)`` column of
    candidate reaction times against a ``(T,)`` master grid yields
    ``(L, T)`` profile arrays, the ego half of the batched latency
    kernel. Both the scalar latency search and the batched engine call
    this one routine, so their ego kinematics cannot drift.

    ``anchors`` optionally supplies precomputed ``(d_e1, v_tr)``
    reaction-travel values (broadcastable like ``reaction_time``) so a
    caller evaluating several grids for the same reaction times pays
    the scalar closed forms once.
    """
    times = np.asarray(times, dtype=float)
    reaction = np.asarray(reaction_time, dtype=float)
    cap = speed_cap
    v0 = ego.speed
    a0 = ego.accel
    # The coast terms live on the time axis alone: up to t_r the coast
    # time min(times, t_r) is the time itself, and past t_r the braking
    # branch is selected anyway.
    coast = times

    if a0 > 0.0:
        limit = cap if cap is not None else math.inf
        t_limit = (limit - v0) / a0 if limit > v0 else 0.0
    elif a0 < 0.0:
        limit = 0.0
        t_limit = v0 / -a0
    else:
        limit = v0
        t_limit = math.inf

    capped = np.minimum(coast, t_limit)
    coast_distance = v0 * capped + 0.5 * a0 * capped**2
    if math.isfinite(t_limit):
        coast_distance = coast_distance + limit * np.maximum(
            0.0, coast - t_limit
        )
    coast_speed = np.clip(
        v0 + a0 * coast,
        0.0,
        cap if cap is not None else math.inf,
    )

    # Braking phase (only for times past the reaction window). The
    # d_e1/v_tr anchors go through the same scalar closed form as the
    # reference search so each candidate's row is bit-identical to a
    # scalar evaluation at that reaction time.
    if anchors is not None:
        d_e1, v_tr = anchors
    elif reaction.ndim == 0:
        d_e1, v_tr = ego.reaction_travel(float(reaction), cap)
    else:
        pairs = [
            ego.reaction_travel(float(r), cap) for r in reaction.ravel()
        ]
        d_e1 = np.array([p[0] for p in pairs]).reshape(reaction.shape)
        v_tr = np.array([p[1] for p in pairs]).reshape(reaction.shape)
    a_b = ego.braking_decel
    tau = np.maximum(0.0, times - reaction)
    v_brake = np.maximum(0.0, v_tr - a_b * tau)
    d_brake = d_e1 + (v_tr**2 - v_brake**2) / (2.0 * a_b)

    braking = times > reaction
    distance = np.where(braking, d_brake, coast_distance)
    speed = np.where(braking, v_brake, coast_speed)
    return distance, speed
