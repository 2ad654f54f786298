"""The online safety check (Section 3.2, "Safety Check").

"With Zhuyi's estimated per-camera requirements, the system can check
whether the current per-camera processing rates are above the estimates.
If not, there is a safety concern with a high potential for a collision
... the Safety check block can send an alarm to the AV system which can
take one of the following actions": activate a backup system, drop
non-essential work, or raise the under-provisioned cameras' rates.
A verdict reports the alarms; choosing the response is left to the AV
system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.core.evaluator import EvaluationTick


@dataclass(frozen=True)
class Alarm:
    """One camera operating below its Zhuyi requirement."""

    time: float
    camera: str
    operating_fpr: float
    required_fpr: float


@dataclass(frozen=True)
class SafetyVerdict:
    """Result of one safety-check evaluation."""

    time: float
    safe: bool
    alarms: tuple[Alarm, ...]


@dataclass
class SafetyChecker:
    """Compares operating rates against Zhuyi estimates.

    A camera alarms when its operating rate is below its estimate (the
    paper's plain comparison).
    """

    _history: list[SafetyVerdict] = field(default_factory=list, init=False)

    @property
    def history(self) -> Sequence[SafetyVerdict]:
        """All verdicts issued so far."""
        return tuple(self._history)

    def check(
        self,
        tick: EvaluationTick,
        operating_fprs: Mapping[str, float],
    ) -> SafetyVerdict:
        """Evaluate one estimation tick against current camera rates.

        Cameras present in the tick but absent from ``operating_fprs``
        are ignored (e.g. estimates for virtual cameras).
        """
        alarms = []
        for camera, estimate in tick.camera_estimates.items():
            if camera not in operating_fprs:
                continue
            operating = operating_fprs[camera]
            if operating + 1e-9 < estimate.fpr:
                alarms.append(
                    Alarm(
                        time=tick.time,
                        camera=camera,
                        operating_fpr=operating,
                        required_fpr=estimate.fpr,
                    )
                )
        verdict = SafetyVerdict(
            time=tick.time,
            safe=not alarms,
            alarms=tuple(alarms),
        )
        self._history.append(verdict)
        return verdict
