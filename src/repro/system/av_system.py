"""The Zhuyi block wired into the running AV (Figure 3).

:class:`ZhuyiOnlineSystem` is a simulation hook: at a configurable
cadence it runs the online estimator on the perceived world model,
feeds the result to the safety checker, and (optionally) retunes the
perception system's per-camera rates through the work prioritizer.
The recorded tick series is the post-deployment counterpart of the
offline evaluator's output — the data behind Figure 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.core.evaluator import EvaluationTick
from repro.core.online import OnlineEstimator
from repro.errors import ConfigurationError
from repro.system.prioritization import WorkPrioritizer
from repro.system.safety_check import SafetyChecker, SafetyVerdict

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.simulator import Simulator


@dataclass(frozen=True)
class OnlineRecord:
    """One online estimation tick with its safety verdict."""

    tick: EvaluationTick
    verdict: SafetyVerdict
    applied_rates: dict[str, float] | None


@dataclass
class ZhuyiOnlineSystem:
    """Online safety check + work prioritization as a simulation hook.

    The model's ``l0`` is the front_120 camera's current processing
    latency.

    Attributes:
        estimator: the online Zhuyi estimator.
        checker: safety checker receiving every tick.
        prioritizer: when given, camera rates are retuned every tick.
        period: estimation cadence (seconds).
    """

    estimator: OnlineEstimator
    checker: SafetyChecker = field(default_factory=SafetyChecker)
    prioritizer: WorkPrioritizer | None = None
    period: float = 0.1
    records: list[OnlineRecord] = field(default_factory=list)
    _next_run: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        if self.period <= 0.0:
            raise ConfigurationError(f"period must be positive: {self.period}")

    # ------------------------------------------------------------------
    # SimHook interface
    # ------------------------------------------------------------------

    def on_step(self, now: float, simulator: "Simulator") -> None:
        """Run the estimator at the configured cadence."""
        if now + 1e-9 < self._next_run:
            return
        self._next_run = now + self.period

        perception = simulator.perception
        l0 = perception.processing_latency("front_120")
        tick = self.estimator.estimate(
            now=now,
            ego_state=simulator.ego_state,
            ego_spec=simulator.ego_spec,
            world_model=perception.world_model,
            l0=l0,
        )
        verdict = self.checker.check(tick, perception.fprs())

        applied = None
        if self.prioritizer is not None:
            applied = self.prioritizer.allocation_for(tick)
            for camera, rate in applied.items():
                perception.set_fpr(camera, rate)
        self.records.append(
            OnlineRecord(tick=tick, verdict=verdict, applied_rates=applied)
        )

    # ------------------------------------------------------------------
    # series accessors (Figure 7)
    # ------------------------------------------------------------------

    def times(self) -> list[float]:
        """Timestamps of the recorded ticks."""
        return [record.tick.time for record in self.records]

    def camera_latency_series(self, camera: str) -> list[float]:
        """Online binding-latency series for one camera (seconds)."""
        return [record.tick.latency(camera) for record in self.records]

    def camera_fpr_series(self, camera: str) -> list[float]:
        """Online FPR-estimate series for one camera."""
        return [record.tick.fpr(camera) for record in self.records]

    def alarms(self) -> list[SafetyVerdict]:
        """All verdicts that raised at least one alarm."""
        return [
            record.verdict for record in self.records if not record.verdict.safe
        ]

    def ticks(self) -> Sequence[EvaluationTick]:
        """All estimation ticks."""
        return [record.tick for record in self.records]
