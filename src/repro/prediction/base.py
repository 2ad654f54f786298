"""Prediction interfaces.

A predictor maps one perceived actor to a set of timestamped future
trajectories with probabilities summing to one. Trajectories are absolute
— their timestamps continue the simulation clock from ``now``.

Two protocols live here:

* the per-tick :class:`Predictor` (``predict``) — one actor, one instant;
* the trace-batch extension (``predict_trace``) — one actor *identity*
  observed at every tick of a recorded trace, answered with
  :class:`TraceHypothesis` array rollouts covering all ticks at once.
  A replay on a vectorized backend requires it; per-tick-only
  predictors replay on the scalar backend.
  :func:`predict_trace_via_loop` stacks the per-tick ``predict`` output
  into the same array form — the reference a ``predict_trace`` is
  checked against.

Sample grids are closed-form (:func:`sample_times`): the drifting
``t += sample_period`` accumulation the predictors used to run makes the
final sample's inclusion depend on operand magnitudes, which both emits
wrong sample counts near horizon multiples and breaks the guarantee that
a batch rollout's grid equals the per-tick grid bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.dynamics.state import RolloutArrays, StateTrajectory
from repro.errors import EstimationError
from repro.perception.world_model import PerceivedActor
from repro.units import time_grid_count


def sample_times(horizon: float, sample_period: float) -> np.ndarray:
    """The closed-form prediction sample grid ``0, p, 2p, ... <= horizon``.

    Shared by every predictor (and by both their per-tick and batch
    paths): the count comes from the evaluator's
    ``floor(span / step + eps) + 1`` form and the instants are exact
    ``k * sample_period`` products, so the grid is a pure function of
    ``(horizon, sample_period)`` — no accumulation, no drift.

    Raises:
        EstimationError: on a non-positive horizon (the estimation-layer
            contract for invalid per-call inputs).
    """
    if horizon <= 0.0:
        raise EstimationError(f"horizon must be positive, got {horizon}")
    return sample_period * np.arange(time_grid_count(horizon, sample_period))


@dataclass(frozen=True)
class PredictedTrajectory:
    """One hypothesized future with its probability."""

    trajectory: StateTrajectory
    probability: float
    label: str = "hypothesis"

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise EstimationError(
                f"probability must be in [0, 1], got {self.probability}"
            )


@dataclass(frozen=True)
class TraceHypothesis:
    """One hypothesis label rolled out at every tick of a trace.

    The batch counterpart of one :class:`PredictedTrajectory` per tick:
    row ``n`` of ``rollout`` is the hypothesis' future as predicted at
    tick ``n``, with the probability it carried there. ``active`` marks
    the ticks where the per-tick predictor would have emitted the
    hypothesis at all (e.g. a lane-change hypothesis only applies while
    the actor sits in an adjacent lane); inactive rows carry undefined
    rollout values and zero probability and must not be sampled.
    """

    label: str
    rollout: RolloutArrays
    probabilities: np.ndarray
    active: np.ndarray

    def __post_init__(self) -> None:
        if not (
            self.rollout.rows
            == len(self.probabilities)
            == len(self.active)
        ):
            raise EstimationError(
                f"hypothesis {self.label!r}: rollout rows, probabilities "
                "and active mask must align"
            )


@runtime_checkable
class Predictor(Protocol):
    """Maps a perceived actor to probabilistic future trajectories."""

    def predict(
        self, actor: PerceivedActor, now: float, horizon: float
    ) -> Sequence[PredictedTrajectory]:
        """Futures for ``actor`` covering ``[now, now + horizon]``.

        Probabilities over the returned set must sum to 1 (within
        floating-point tolerance).
        """
        ...


def check_probabilities(
    predictions: Sequence[PredictedTrajectory], tolerance: float = 1e-6
) -> None:
    """Validate that prediction probabilities sum to one."""
    if not predictions:
        raise EstimationError("a predictor must return at least one trajectory")
    total = sum(prediction.probability for prediction in predictions)
    if abs(total - 1.0) > tolerance:
        raise EstimationError(
            f"prediction probabilities sum to {total}, expected 1"
        )


def predict_trace_via_loop(
    predictor: Predictor,
    actors: Sequence[PerceivedActor],
    nows: np.ndarray,
    horizon: float,
) -> list[TraceHypothesis] | None:
    """The per-tick loop's ``predict_trace``, stacked into arrays.

    Calls ``predictor.predict`` once per tick and aligns the returned
    hypotheses by label into :class:`TraceHypothesis` rows: the
    reference a predictor's own ``predict_trace`` must equal. Alignment
    requires a structure the arrays can hold: unique labels within a
    tick, a label order consistent across ticks, and a fixed sample
    count per label. Returns ``None`` when the predictor's output is
    too ragged to stack.
    """
    nows = np.asarray(nows, dtype=float)
    per_tick = [
        predictor.predict(actor, float(now), horizon)
        for actor, now in zip(actors, nows)
    ]
    n_ticks = len(per_tick)
    labels: list[str] = []
    entries: dict[str, dict[int, PredictedTrajectory]] = {}
    for n, predictions in enumerate(per_tick):
        previous = -1
        seen: set[str] = set()
        for prediction in predictions:
            label = prediction.label
            if label in seen:
                return None  # duplicate labels cannot align
            seen.add(label)
            if label not in entries:
                labels.append(label)
                entries[label] = {}
            # Entry order must be consistent across ticks: Equation 4's
            # reductions are evaluated in entry order, so a batch that
            # reordered hypotheses would aggregate differently.
            position = labels.index(label)
            if position <= previous:
                return None
            previous = position
            entries[label][n] = prediction

    hypotheses: list[TraceHypothesis] = []
    for label in labels:
        by_tick = entries[label]
        first = next(iter(by_tick.values()))
        n_samples = len(first.trajectory)
        if any(
            len(prediction.trajectory) != n_samples
            for prediction in by_tick.values()
        ):
            return None  # ragged sample counts cannot stack
        times = np.zeros((n_ticks, n_samples))
        xs = np.zeros((n_ticks, n_samples))
        ys = np.zeros((n_ticks, n_samples))
        speeds = np.zeros((n_ticks, n_samples))
        end_vx = np.zeros(n_ticks)
        end_vy = np.zeros(n_ticks)
        probabilities = np.zeros(n_ticks)
        active = np.zeros(n_ticks, dtype=bool)
        for n, prediction in by_tick.items():
            t, x, y, v, end_velocity = prediction.trajectory.knot_arrays()
            times[n] = t
            xs[n] = x
            ys[n] = y
            speeds[n] = v
            end_vx[n], end_vy[n] = end_velocity
            probabilities[n] = prediction.probability
            active[n] = True
        hypotheses.append(
            TraceHypothesis(
                label=label,
                rollout=RolloutArrays(
                    times=times,
                    xs=xs,
                    ys=ys,
                    speeds=speeds,
                    end_vx=end_vx,
                    end_vy=end_vy,
                ),
                probabilities=probabilities,
                active=active,
            )
        )
    return hypotheses
