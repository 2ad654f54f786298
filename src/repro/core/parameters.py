"""Zhuyi model parameters.

Defaults reproduce the paper's experimental configuration (Section 4.1):
``C1 = C2 = 0.9``, ``C3 = 4.9 m/s^2``, ``C4 = 1.1``, ``K = 5``, ``M = 10``
and a latency grid from 1 s down to 33 ms (one 30-FPR frame period) in
33 ms steps (``L = 1s / 33ms = 30`` candidate latencies).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ZhuyiParams:
    """All constants of the Zhuyi model (Section 2 + Section 4.1).

    Attributes:
        c1: conservatism factor on the distance constraint (Eq 1).
        c2: conservatism factor on the velocity constraint (Eq 2).
        c3: minimum braking deceleration, m/s^2 (floor of ``a_b``).
        c4: scale on the ego's current deceleration when braking harder
            than ``c3`` is already in progress (``a_b = max(C3, C4*a0)``).
        k: number of perception frames needed to confirm an actor; enters
            the confirmation delay ``alpha = K * (l - l0)``.
        m: maximum iterations of the accelerated ``t_n`` search (Eq 3).
        l_max: largest candidate latency probed, seconds.
        l_min: smallest candidate latency probed, seconds.
        dl: latency grid step, seconds.
        tn_step: fallback/naive time step of the ``t_n`` search, seconds.
        horizon: maximum prediction horizon considered per actor, seconds.
        horizon_margin: slack added after the ego's stopping time when
            bounding the ``t_n`` search, seconds.
        lateral_margin: extra lateral clearance (metres) added to the two
            half-widths when gating which actors can collide at all (the
            paper "considers the possibility of a collision": actors whose
            predictions never enter the ego's lane corridor are skipped).
    """

    c1: float = 0.9
    c2: float = 0.9
    c3: float = 4.9
    c4: float = 1.1
    k: int = 5
    m: int = 10
    l_max: float = 1.0
    l_min: float = 1.0 / 30.0
    dl: float = 1.0 / 30.0
    tn_step: float = 0.01
    horizon: float = 8.0
    horizon_margin: float = 1.0
    lateral_margin: float = 0.25

    def __post_init__(self) -> None:
        if not 0.0 < self.c1 <= 1.0:
            raise ConfigurationError(f"C1 must be in (0, 1], got {self.c1}")
        if not 0.0 < self.c2 <= 1.0:
            raise ConfigurationError(f"C2 must be in (0, 1], got {self.c2}")
        if self.c3 <= 0.0:
            raise ConfigurationError(f"C3 must be positive, got {self.c3}")
        if self.c4 < 1.0:
            raise ConfigurationError(
                f"C4 must be at least 1 (braking never weakens), got {self.c4}"
            )
        if self.k < 0:
            raise ConfigurationError(f"K must be non-negative, got {self.k}")
        if self.m < 1:
            raise ConfigurationError(f"M must be at least 1, got {self.m}")
        if not 0.0 < self.l_min <= self.l_max:
            raise ConfigurationError(
                f"need 0 < l_min <= l_max, got {self.l_min}, {self.l_max}"
            )
        if self.dl <= 0.0:
            raise ConfigurationError(f"dl must be positive, got {self.dl}")
        if self.tn_step <= 0.0:
            raise ConfigurationError(f"tn_step must be positive, got {self.tn_step}")
        if self.horizon <= 0.0 or self.horizon_margin < 0.0:
            raise ConfigurationError("horizon settings must be positive")
        if self.lateral_margin < 0.0:
            raise ConfigurationError("lateral margin must be non-negative")

    @property
    def num_latency_steps(self) -> int:
        """The paper's ``L`` — the size of the candidate-latency grid."""
        return len(self.latency_grid())

    def latency_grid(self) -> list[float]:
        """Candidate latencies, descending multiples of ``dl``.

        With the defaults this is 1.0, 29/30, ..., 1/30 — thirty values,
        matching the paper's ``L = 1s / 33ms = 30`` (the paper's "33 ms"
        is one 30-FPR frame period), so the corresponding FPR values are
        the round 30/k.
        """
        grid: list[float] = []
        value = self.l_min
        while value <= self.l_max + 1e-12:
            grid.append(round(value, 9))
            # reprolint: disable=DET003 -- every appended entry is
            # re-quantized to the 1 ns grid (round(value, 9)), so the
            # accumulation cannot drift past the rounding quantum; the
            # rounded ladder is the paper's pinned L grid.
            value += self.dl
        grid.reverse()
        return grid

    def fpr_cap(self) -> float:
        """Largest reportable FPR (latency at the grid minimum)."""
        return 1.0 / self.l_min

    def solver_grid_key(self) -> "ZhuyiParams":
        """This parameter set with the Eq 1/2 factors normalized away.

        Two variants whose keys compare equal share *everything* the
        latency kernel precomputes — the candidate grid and reaction
        times (``l_max``/``l_min``/``dl``/``k``), the ego profile
        (``c3``/``c4``), the scan grid (``tn_step``/``horizon_margin``)
        and the collision gating (``lateral_margin``/``horizon``) — and
        differ only in where the Eq 1/2 feasibility comparisons draw the
        line. Such variants can be solved together through one
        cross-trace kernel with per-row ``c1``/``c2`` columns (the
        campaign super-cell path); anything else needs its own grid.
        """
        return replace(self, c1=1.0, c2=1.0)

    def confirmation_delay(self, latency: float, l0: float) -> float:
        """The paper's ``alpha = K * (l - l0)``, clamped at zero.

        ``l0`` is the processing latency the system is currently running
        at; probing a latency faster than the current one cannot produce
        a negative confirmation delay, hence the clamp.
        """
        return max(0.0, self.k * (latency - l0))
