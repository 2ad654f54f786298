"""The minimum required FPR verdict (Table 1's "Min Required FPR" column).

"We validate the Zhuyi model by running the AV system with different FPR
(ranging from 1 to 30) and check whether the estimated FPR for a
scenario is above the minimum required FPR (MRF). The MRF is the FPR
above which no collision was detected in the scenario."

:func:`mrf_verdict` is the one place that verdict is computed. It is a
pure function of collision outcomes; the runs behind them come from a
campaign (:func:`repro.batch.aggregate.campaign_table1`). Runs of the
same seed share choreography, so the outcomes are a paired comparison
across FPR settings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

#: The paper's validation grid of fixed FPR settings.
DEFAULT_FPR_GRID: tuple[float, ...] = (
    1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 15.0, 30.0
)


@dataclass(frozen=True)
class MRFResult:
    """One scenario's MRF verdict.

    Attributes:
        scenario: scenario name.
        mrf: the lowest tested rate above every colliding rate, or
            ``None`` when no such rate has an outcome.
        collision_fprs: rates at which at least one seed collided.
        safe_fprs: rates at which no seed collided.
    """

    scenario: str
    mrf: float | None
    collision_fprs: tuple[float, ...]
    safe_fprs: tuple[float, ...]

    @property
    def label(self) -> str:
        """Table 1 style label: "<1" when even the lowest rate is safe."""
        if self.mrf is None:
            return "unsafe"
        if not self.collision_fprs:
            return "<" + _format_fpr(self.mrf)
        return _format_fpr(self.mrf)


def _format_fpr(value: float) -> str:
    return f"{value:g}"


def mrf_verdict(
    scenario: str, outcomes: Mapping[float, Sequence[bool]]
) -> MRFResult:
    """The MRF verdict from per-rate collision outcomes.

    Args:
        scenario: the scenario the outcomes belong to.
        outcomes: each tested rate mapped to the collided flags of the
            seeds that produced an outcome there. A rate counts as
            colliding when any seed collided. A rate with no flags
            (every run at it failed) is neither safe nor colliding,
            and cannot be the MRF.

    Returns:
        The verdict; the MRF is the lowest rate with an outcome above
        every colliding rate.
    """
    rates = sorted(rate for rate, flags in outcomes.items() if flags)
    collision_rates = tuple(rate for rate in rates if any(outcomes[rate]))
    safe_rates = tuple(rate for rate in rates if not any(outcomes[rate]))
    worst = max(collision_rates, default=None)
    mrf = next(
        (rate for rate in rates if worst is None or rate > worst), None
    )
    return MRFResult(
        scenario=scenario,
        mrf=mrf,
        collision_fprs=collision_rates,
        safe_fprs=safe_rates,
    )
