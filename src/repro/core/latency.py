"""The tolerable-latency search — Equations 1-3 of the paper.

For each candidate latency ``l`` (descending from ``l_max`` in ``dl``
steps) the search asks: is there a check time ``t_n >= t_r`` at which
both safety constraints hold?

* Eq 1 (distance):  ``d_e1 + d_e2 <= s_n * C1``
* Eq 2 (velocity):  ``0 <= v_en <= v_an * C2``

The first (largest) feasible ``l`` is the tolerable latency.

Two inner-search strategies are provided:

* ``EXACT`` (default) — a dense scan over ``t_n`` at ``tn_step``
  resolution ("a naive approach is to increment t_n by one timestep and
  re-check"), vectorized with numpy. The scan is *strict*: the
  distance constraint must hold at every scanned time up to ``t_n``,
  not only at ``t_n`` itself. Without this, a slower actor that keeps
  moving away makes some far-future ``t_n`` trivially feasible even when
  the ego would have driven through the actor during its reaction window
  — the point-check loophole. Strict semantics reproduce the paper's
  reported numbers on both braking and receding actors.
* ``PAPER`` — the accelerated stepping of Equation 3: start at
  ``t_n = t_r`` and take at most ``M`` adaptive steps sized by how long
  the ego needs to consume the distance headroom (``dt_d``) or brake to
  the target speed (``dt_v``). Equation 3's branch conditions overlap;
  this implements the ordered reading (``dt_d`` first). Kept as the
  performance-oriented variant and exercised by the ablation benchmark.

A latency of ``None`` means even ``l_min`` was infeasible: the model
predicts an unavoidable collision (the white region of Figure 8).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.ego_profile import EgoMotion, ego_profile_arrays
from repro.core.parameters import ZhuyiParams
from repro.core.threat import LongitudinalThreat, sample_grid

#: Latency value used in aggregations for unavoidable-collision verdicts.
UNAVOIDABLE_LATENCY = 0.0

#: Numerical slack on the constraint comparisons.
_EPS = 1e-9

#: Latency-solver backends: the scalar per-candidate reference loop,
#: or the vectorized block kernel
#: (:func:`repro.core.evaluator.evaluate_trace_block` over the array
#: programs of :mod:`repro.core.engine`). ``batched`` and
#: ``crosstrace`` both name the kernel; they differ only in how many
#: campaign cells one runner task hands it (one, or a super-cell). All
#: three produce bit-identical results; only the clock differs.
BACKENDS = ("scalar", "batched", "crosstrace")


class SearchStrategy(enum.Enum):
    """Inner ``t_n``-search strategy."""

    PAPER = "paper"
    EXACT = "exact"


@dataclass(frozen=True)
class LatencyResult:
    """Outcome of one per-actor tolerable-latency search.

    Attributes:
        latency: the tolerable latency in seconds, or ``None`` when no
            candidate latency is safe (unavoidable collision).
        check_time: the feasible ``t_n`` found for that latency (relative
            to ``t0``), or ``None``.
        iterations: number of constraint evaluations performed — used to
            validate the Section 4.2 compute-demand model.
    """

    latency: float | None
    check_time: float | None
    iterations: int

    @property
    def unavoidable(self) -> bool:
        """True when no latency in the grid keeps the ego safe."""
        return self.latency is None

    def latency_or_zero(self) -> float:
        """The latency with ``None`` mapped to :data:`UNAVOIDABLE_LATENCY`."""
        return UNAVOIDABLE_LATENCY if self.latency is None else self.latency


@dataclass
class LatencySearch:
    """Per-actor tolerable-latency solver — the scalar reference.

    One latency candidate at a time, exactly as the paper states the
    search. The batched array kernel of
    :class:`repro.core.engine.LatencyEngine` reproduces its EXACT
    results bit for bit; every vectorized path runs that kernel and is
    tested against this loop.

    Attributes:
        params: the Zhuyi constants.
        strategy: inner-search strategy (dense strict reference scan,
            or the paper's Eq 3 accelerated stepping).
    """

    params: ZhuyiParams = field(default_factory=ZhuyiParams)
    strategy: SearchStrategy = SearchStrategy.EXACT

    def tolerable_latency(
        self,
        ego: EgoMotion,
        threat: LongitudinalThreat,
        l0: float,
    ) -> LatencyResult:
        """Search the latency grid (descending) for the largest safe ``l``.

        ``l0`` is the processing latency the system currently runs at; it
        enters the confirmation delay ``alpha = K * (l - l0)``.
        """
        iterations = 0
        for latency in self.params.latency_grid():
            reaction_time = latency + self.params.confirmation_delay(latency, l0)
            feasible_tn, used = self._search_check_time(ego, threat, reaction_time)
            iterations += used
            if feasible_tn is not None:
                return LatencyResult(
                    latency=latency,
                    check_time=feasible_tn,
                    iterations=iterations,
                )
        return LatencyResult(latency=None, check_time=None, iterations=iterations)

    # ------------------------------------------------------------------
    # inner search over t_n
    # ------------------------------------------------------------------

    def _search_check_time(
        self,
        ego: EgoMotion,
        threat: LongitudinalThreat,
        reaction_time: float,
    ) -> tuple[float | None, int]:
        """Find a feasible ``t_n`` for a fixed reaction time.

        Returns ``(t_n or None, constraint evaluations used)``.
        """
        horizon = (
            ego.stop_time_after(reaction_time) + self.params.horizon_margin
        )
        if self.strategy is SearchStrategy.PAPER:
            return self._paper_search(ego, threat, reaction_time, horizon)
        return self._exact_search(ego, threat, reaction_time, horizon)

    def _evaluate(
        self,
        ego: EgoMotion,
        threat: LongitudinalThreat,
        reaction_time: float,
        check_time: float,
    ) -> tuple[float, float, float]:
        """Constraint gaps at ``check_time``.

        Returns ``(gap_d, gap_v, v_en)`` where ``gap_d >= 0`` means the
        distance constraint (Eq 1) holds with that much headroom and
        ``gap_v <= 0`` means the velocity constraint (Eq 2) holds.
        """
        travelled, v_en = ego.total_travel(reaction_time, check_time)
        s_n = threat.gap_at(check_time)
        v_an = threat.actor_speed_at(check_time)
        gap_d = self.params.c1 * s_n - travelled
        gap_v = v_en - self.params.c2 * v_an
        return gap_d, gap_v, v_en

    def _paper_search(
        self,
        ego: EgoMotion,
        threat: LongitudinalThreat,
        reaction_time: float,
        horizon: float,
    ) -> tuple[float | None, int]:
        """Equation 3: adaptive stepping, at most ``M`` attempts."""
        a_b = ego.braking_decel
        check_time = reaction_time
        evaluations = 0
        for _ in range(self.params.m):
            gap_d, gap_v, v_en = self._evaluate(
                ego, threat, reaction_time, check_time
            )
            evaluations += 1
            if gap_d >= -_EPS and gap_v <= _EPS:
                return check_time, evaluations

            # Equation 3, ordered reading: with distance headroom left,
            # jump by the time the braking ego needs to consume it.
            dt_d = (v_en + math.sqrt(v_en**2 + 2.0 * a_b * abs(gap_d))) / a_b
            if gap_d >= 0.0:
                step = dt_d
            elif gap_v > 0.0:
                step = gap_v / a_b
            else:
                step = dt_d
            step = max(step, self.params.tn_step)

            if check_time >= horizon:
                break
            check_time = min(check_time + step, horizon)
        return None, evaluations

    def _exact_search(
        self,
        ego: EgoMotion,
        threat: LongitudinalThreat,
        reaction_time: float,
        horizon: float,
    ) -> tuple[float | None, int]:
        """Dense strict scan over ``t_n`` — the reference implementation.

        The scan starts at ``t = 0`` so that a distance violation
        anywhere before the candidate ``t_n`` (an interim collision
        during the reaction window) disqualifies it.
        """
        step = self.params.tn_step
        times = np.arange(0.0, horizon + step, step)
        if times.size == 0:
            return None, 0
        # The search domain starts at t_n = t_r, which need not be a grid
        # multiple; a feasible window narrower than one step that opens
        # exactly at t_r (e.g. a near-spent distance budget) would fall
        # between samples, making the reference scan claim infeasibility
        # where the paper's t_r-anchored stepping is feasible.
        if reaction_time <= horizon:
            times = np.union1d(times, [reaction_time])

        # The one-tick, one-candidate case of the engine's profiles.
        distance, speed, _, _ = ego_profile_arrays(
            [ego], np.array([reaction_time]), times
        )
        distance, speed = distance[0, 0], speed[0, 0]
        gaps, actor_speeds = sample_grid(threat, times)

        distance_ok = distance <= self.params.c1 * gaps + _EPS
        velocity_ok = speed <= self.params.c2 * actor_speeds + _EPS
        candidate = distance_ok & velocity_ok & (times >= reaction_time - _EPS)
        violations = np.flatnonzero(~distance_ok)
        if violations.size:
            candidate[violations[0]:] = False

        feasible = np.flatnonzero(candidate)
        if feasible.size == 0:
            return None, int(times.size)
        index = int(feasible[0])
        # Evaluations used: everything scanned up to the hit (the strict
        # prefix must be scanned regardless).
        return float(times[index]), index + 1
