"""Figures 4-7 — per-camera latency estimates over a scenario's timeline.

Figures 4-6 come from the *offline* evaluator over a 30-FPR trace of
Cut-out fast, Challenging cut-in on a curved road, and Cut-in; each
shows the left/front/right camera latency series plus the ego's
acceleration. Figure 7 repeats Cut-in with the *online* estimator (world
model + predicted trajectories), whose variance against Figure 6c the
paper attributes to prediction differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.analysis.report import pearson_correlation
from repro.core.aggregation import PercentileAggregator
from repro.core.evaluator import OfflineEvaluator
from repro.core.online import OnlineEstimator
from repro.core.parameters import ZhuyiParams
from repro.errors import ConfigurationError
from repro.perception.sensor import ANALYZED_CAMERAS
from repro.prediction.maneuver import ManeuverPredictor
from repro.scenarios.catalog import build_scenario
from repro.system.av_system import ZhuyiOnlineSystem
from repro.units import seconds_to_ms


@dataclass(frozen=True)
class FigureSeries:
    """One figure's data: per-camera latency and FPR series + ego accel.

    ``camera_fprs`` holds each tick's Equation 5 estimate as the
    estimator reported it (an unavoidable tick reads the model's FPR
    cap), so the figures never derive a rate from a latency themselves.
    """

    scenario: str
    mode: str
    times_ms: tuple[int, ...]
    camera_latencies: Mapping[str, tuple[float, ...]]
    camera_fprs: Mapping[str, tuple[float, ...]]
    ego_accel: tuple[float, ...]
    collided: bool

    def latency(self, camera: str) -> tuple[float, ...]:
        """Latency series (seconds) for one camera."""
        return self._series(self.camera_latencies, camera)

    def fpr(self, camera: str) -> tuple[float, ...]:
        """FPR estimate series for one camera."""
        return self._series(self.camera_fprs, camera)

    def min_latency(self, camera: str) -> float:
        """Most demanding latency over the run (seconds)."""
        return min(self.latency(camera))

    def max_fpr(self, camera: str) -> float:
        """Highest FPR requirement over the run."""
        return max(self.fpr(camera))

    @staticmethod
    def _series(
        table: Mapping[str, tuple[float, ...]], camera: str
    ) -> tuple[float, ...]:
        if camera not in table:
            raise ConfigurationError(
                f"no series for camera {camera!r}; have {sorted(table)}"
            )
        return table[camera]


def offline_figure_series(
    scenario: str,
    seed: int = 0,
    fpr: float = 30.0,
    cameras: Sequence[str] = ANALYZED_CAMERAS,
    params: ZhuyiParams | None = None,
    stride: float = 0.1,
) -> FigureSeries:
    """Figures 4-6: run a scenario and evaluate offline."""
    built = build_scenario(scenario, seed=seed)
    trace = built.run(fpr=fpr)
    evaluator = OfflineEvaluator(
        params=params if params is not None else ZhuyiParams(),
        road=built.road,
        stride=stride,
    )
    series = evaluator.evaluate(trace)
    return FigureSeries(
        scenario=scenario,
        mode="offline",
        times_ms=tuple(seconds_to_ms(t) for t in series.times()),
        camera_latencies={
            camera: tuple(series.camera_latency_series(camera))
            for camera in cameras
        },
        camera_fprs={
            camera: tuple(series.camera_fpr_series(camera))
            for camera in cameras
        },
        ego_accel=tuple(series.ego_accel_series()),
        collided=trace.has_collision,
    )


def online_figure_series(
    scenario: str = "cut_in",
    seed: int = 0,
    fpr: float = 30.0,
    cameras: Sequence[str] = ANALYZED_CAMERAS,
    params: ZhuyiParams | None = None,
    period: float = 0.1,
    percentile: float = 90.0,
) -> FigureSeries:
    """Figure 7: run a scenario with the online estimator in the loop.

    The paper aggregates with the 99th percentile over a *dense* set of
    predicted trajectories; our physics predictor emits five discrete
    hypotheses, where a 99th percentile degenerates to the worst case.
    The default 90th percentile plays the same "cautious but not
    dictated by a 5%-probability extreme" role at this granularity.
    """
    built = build_scenario(scenario, seed=seed)
    zhuyi_params = params if params is not None else ZhuyiParams()
    predictor = ManeuverPredictor(road=built.road, target_lane=built.spec.ego_lane)
    system = ZhuyiOnlineSystem(
        estimator=OnlineEstimator(
            params=zhuyi_params,
            predictor=predictor,
            road=built.road,
            aggregator=PercentileAggregator(percentile),
        ),
        period=period,
    )
    trace = built.run(fpr=fpr, hooks=[system])
    ticks = system.ticks()
    if not ticks:
        raise ConfigurationError("online system recorded no ticks")
    return FigureSeries(
        scenario=scenario,
        mode="online",
        times_ms=tuple(seconds_to_ms(tick.time) for tick in ticks),
        camera_latencies={
            camera: tuple(tick.latency(camera) for tick in ticks)
            for camera in cameras
        },
        camera_fprs={
            camera: tuple(tick.fpr(camera) for tick in ticks)
            for camera in cameras
        },
        ego_accel=tuple(tick.ego_accel for tick in ticks),
        collided=trace.has_collision,
    )


def decel_correlation(
    series: FigureSeries,
    camera: str = "front_120",
    max_lag: int = 20,
) -> float:
    """Correlation between front-camera FPR demand and ego deceleration.

    The paper observes "a strong correlation between the front camera
    FPR requirements and ego deceleration". Zhuyi *anticipates*: its
    demand rises when the threat appears, before the (perception-bound)
    ego starts braking, so the series are correlated at a small lead.
    This scans non-negative lags (demand leading braking) up to
    ``max_lag`` samples and returns the strongest Pearson coefficient.
    """
    fprs = series.fpr(camera)
    braking = [max(0.0, -accel) for accel in series.ego_accel]
    best = pearson_correlation(fprs, braking)
    for lag in range(1, min(max_lag, len(fprs) - 2) + 1):
        shifted = pearson_correlation(fprs[:-lag], braking[lag:])
        best = max(best, shifted)
    return best
