"""Figure 8 — estimated minimum FPR over (v_e0, v_an) at fixed s_n.

"We sweep v_e0 and v_an by fixing s_n, the distance the ego can travel
between time t0 and t_n and not collide with the actor in the same
lane." Fixing ``s_n`` is exactly a :class:`FixedGapThreat`; the sweep
solves the tolerable latency at every grid point and reports 1/l.

The paper's figure shows 30+ FPR in gray and unavoidable collisions in
white; :class:`SensitivityGrid` marks the white region with NaN
(:meth:`~SensitivityGrid.white_mask`), and the heatmap renderer
(:func:`repro.analysis.report.render_heatmap`) draws both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.ego_profile import EgoMotion
from repro.core.latency import LatencySearch
from repro.core.parameters import ZhuyiParams
from repro.core.threat import FixedGapThreat
from repro.errors import ConfigurationError
from repro.units import mph_to_mps


@dataclass(frozen=True)
class SensitivityGrid:
    """One Figure 8 panel.

    Attributes:
        gap: the fixed ``s_n`` (metres).
        ego_speeds_mph: sweep of ego speeds (x axis of the paper plot).
        actor_speeds_mph: sweep of actor end speeds (y axis).
        min_fpr: grid of minimum FPR estimates, indexed
            ``[actor_speed, ego_speed]``; NaN marks unavoidable
            collisions (the paper's white region).
    """

    gap: float
    ego_speeds_mph: np.ndarray
    actor_speeds_mph: np.ndarray
    min_fpr: np.ndarray

    def white_mask(self) -> np.ndarray:
        """The paper's white region: unavoidable collision."""
        return np.isnan(self.min_fpr)

    def max_finite_fpr(self) -> float:
        """Largest finite FPR on the grid (0 when all unavoidable)."""
        finite = self.min_fpr[~np.isnan(self.min_fpr)]
        return float(finite.max()) if finite.size else 0.0

    def region_fraction(self, mask: np.ndarray) -> float:
        """Fraction of the grid covered by a mask."""
        return float(np.count_nonzero(mask)) / self.min_fpr.size

    def band_max(self, mph_low: float, mph_high: float) -> float:
        """Max finite FPR among ego speeds within an mph band."""
        columns = (self.ego_speeds_mph >= mph_low) & (
            self.ego_speeds_mph <= mph_high
        )
        sub = self.min_fpr[:, columns]
        finite = sub[~np.isnan(sub)]
        return float(finite.max()) if finite.size else 0.0


def sweep_min_fpr(
    gap: float,
    ego_speeds_mph: np.ndarray | None = None,
    actor_speeds_mph: np.ndarray | None = None,
    params: ZhuyiParams | None = None,
    l0: float | None = None,
) -> SensitivityGrid:
    """Run the Figure 8 sweep for one fixed gap.

    Args:
        gap: the fixed ``s_n`` in metres (30 and 100 in the paper).
        ego_speeds_mph: ego speeds swept (default 0-70 mph, 36 points).
        actor_speeds_mph: actor end speeds swept (default 0-70 mph).
        params: Zhuyi constants.
        l0: assumed current processing latency. The default (``l_max``)
            makes the confirmation delay ``alpha = K*(l - l0)`` clamp to
            zero for every probed latency — a pure-latency sweep, which
            is the only reading that reproduces the paper's "FPR <= 2
            below 25 mph" band. Pass e.g. ``1/30`` to study a stack
            already running at 30 FPR.

    Raises:
        ConfigurationError: on a non-positive gap or an empty speed
            sweep.
    """
    if gap <= 0.0:
        raise ConfigurationError(f"gap must be positive, got {gap}")
    if ego_speeds_mph is None:
        ego_speeds_mph = np.linspace(0.0, 70.0, 36)
    if actor_speeds_mph is None:
        actor_speeds_mph = np.linspace(0.0, 70.0, 36)
    if len(ego_speeds_mph) == 0 or len(actor_speeds_mph) == 0:
        raise ConfigurationError("a sweep needs at least one speed per axis")
    params = params if params is not None else ZhuyiParams()
    if l0 is None:
        l0 = params.l_max
    solver = LatencySearch(params=params)

    grid = np.empty((len(actor_speeds_mph), len(ego_speeds_mph)))
    for i, actor_mph in enumerate(actor_speeds_mph):
        threat = FixedGapThreat(gap=gap, actor_speed=mph_to_mps(actor_mph))
        for j, ego_mph in enumerate(ego_speeds_mph):
            ego = EgoMotion.from_state(
                speed=mph_to_mps(ego_mph), accel=0.0, params=params
            )
            result = solver.tolerable_latency(ego, threat, l0)
            if result.latency is None:
                grid[i, j] = np.nan
            else:
                grid[i, j] = 1.0 / result.latency
    return SensitivityGrid(
        gap=gap,
        ego_speeds_mph=np.asarray(ego_speeds_mph, dtype=float),
        actor_speeds_mph=np.asarray(actor_speeds_mph, dtype=float),
        min_fpr=grid,
    )
