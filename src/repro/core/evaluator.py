"""Pre-deployment offline evaluation of a scenario trace (Section 3.1).

"The Zhuyi model is executed at each time-step in the scenario trace
starting from the beginning until the end of the scenario. As we compute
the tolerable latency for each actor at a time, the actor's location at
future time-steps is known, i.e., the size of the set T is one."

The evaluator walks the trace at a fixed stride, runs the per-actor
latency search against each actor's *actual* future (read off the same
trace), groups actors by camera FOV at each instant and produces the
Equation 5 per-camera FPR series — the data behind Table 1's estimate
columns and Figures 4-6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.core.ego_profile import EgoMotion
from repro.core.engine import LatencyEngine, TraceGrid
from repro.core.fpr import (
    CameraColumns,
    CameraEstimate,
    camera_fpr_columns,
    estimate_camera_fprs,
)
from repro.core.latency import BACKENDS, LatencySearch
from repro.core.parameters import ZhuyiParams
from repro.core.threat import CorridorLayout, EgoPathRows, ThreatAssessor
from repro.dynamics.state import StateTrajectory, VehicleState
from repro.errors import EstimationError
from repro.geometry.vec import Vec2
from repro.perception.noise import PerceptionNoise
from repro.perception.sensor import ANALYZED_CAMERAS, default_rig
from repro.road.track import Road
from repro.sim.trace import ScenarioTrace
from repro.units import time_grid_count


@dataclass(frozen=True)
class EvaluationTick:
    """Zhuyi's output at one evaluation instant."""

    time: float
    camera_estimates: Mapping[str, CameraEstimate]
    actor_latencies: Mapping[str, float | None]
    ego_speed: float
    ego_accel: float

    @classmethod
    def at(
        cls,
        time: float,
        ego_state,
        actor_latencies: Mapping[str, float | None],
        visibility: Mapping[str, Sequence[Hashable]],
        params: ZhuyiParams,
    ) -> EvaluationTick:
        """The scalar path's tick builder: one instant's Equation 5
        rollup through the reference :func:`estimate_camera_fprs`, for
        the scalar offline loop and the scalar online estimate. The
        vectorized paths roll a whole tick axis up at once
        (:meth:`EvaluationSeries.rollup`)."""
        return cls(
            time=time,
            camera_estimates=estimate_camera_fprs(
                actor_latencies, visibility, params
            ),
            actor_latencies=actor_latencies,
            ego_speed=ego_state.speed,
            ego_accel=ego_state.accel,
        )

    def fpr(self, camera: str) -> float:
        """The FPR estimate for one camera at this tick."""
        if camera not in self.camera_estimates:
            raise EstimationError(f"no estimate for camera {camera!r}")
        return self.camera_estimates[camera].fpr

    def latency(self, camera: str) -> float:
        """The binding latency for one camera at this tick (seconds)."""
        if camera not in self.camera_estimates:
            raise EstimationError(f"no estimate for camera {camera!r}")
        return self.camera_estimates[camera].latency

    def total_fpr(self, cameras: Sequence[str] = ANALYZED_CAMERAS) -> float:
        """Summed FPR demand over a camera subset at this tick."""
        return sum(self.fpr(camera) for camera in cameras)


_EMPTY_SERIES = "an evaluation series needs at least one tick"


class EvaluationSeries:
    """A time series of Equation 5 estimates with the paper's summaries.

    The series holds columns over its tick axis: :attr:`tick_times`,
    :attr:`ego_speed` and :attr:`ego_accel`, the per-camera
    :class:`~repro.core.fpr.CameraColumns` in :attr:`camera_columns`,
    and the (tick, actor) :attr:`latency_table` over :attr:`actor_ids`
    (NaN: an unavoidable verdict, ``inf``: the actor is absent from
    that tick's latencies). The summaries read the columns.

    The vectorized paths build a series from columns
    (:meth:`rollup`). The constructor records ticks into the same
    columns; the scalar loops build their series that way. Either way
    :attr:`ticks` is a lazy sequence: its ``len`` builds nothing, and
    each :class:`EvaluationTick` it builds on access equals the scalar
    loop's, dict order included.

    Args:
        scenario: the evaluated scenario's name.
        ticks: the ticks to record (at least one), all estimating the
            same cameras.
        params: the Zhuyi constants.
        l0: the processing latency the ticks were estimated at.
        actor_ids: the actor axis order, which each tick's
            ``actor_latencies`` follows; actors it omits join after it
            in order of first appearance.
    """

    def __init__(
        self,
        scenario: str,
        ticks: Sequence[EvaluationTick],
        params: ZhuyiParams,
        l0: float,
        actor_ids: Iterable[Hashable] = (),
    ):
        ticks = list(ticks)
        if not ticks:
            raise EstimationError(_EMPTY_SERIES)
        cameras = ticks[0].camera_estimates.keys()
        axis = dict.fromkeys(actor_ids)
        for tick in ticks:
            if tick.camera_estimates.keys() != cameras:
                raise EstimationError(
                    "the ticks of a series must estimate the same cameras"
                )
            axis.update(dict.fromkeys(tick.actor_latencies))
            axis.update(
                (estimate.binding_actor, None)
                for estimate in tick.camera_estimates.values()
                if estimate.binding_actor is not None
            )
        index = {actor_id: a for a, actor_id in enumerate(axis)}
        latencies = np.full((len(ticks), len(index)), np.inf)
        for i, tick in enumerate(ticks):
            for actor_id, latency in tick.actor_latencies.items():
                latencies[i, index[actor_id]] = (
                    np.nan if latency is None else latency
                )
        self._adopt(
            scenario,
            params,
            l0,
            np.array([tick.time for tick in ticks], dtype=float),
            np.array([tick.ego_speed for tick in ticks], dtype=float),
            np.array([tick.ego_accel for tick in ticks], dtype=float),
            tuple(axis),
            latencies,
            CameraColumns.record(
                [tick.camera_estimates for tick in ticks], index
            ),
        )

    @classmethod
    def rollup(
        cls,
        scenario: str,
        params: ZhuyiParams,
        l0: float,
        times: np.ndarray,
        ego_states: Sequence,
        actor_ids: Sequence[Hashable],
        latencies: np.ndarray,
        visibility: Mapping[str, np.ndarray],
    ) -> EvaluationSeries:
        """The Equation 5 rollup of a tick axis, as a series.

        The vectorized paths' one tick builder — the offline block, the
        online replay and the live one-tick estimate — running
        :func:`~repro.core.fpr.camera_fpr_columns` on the (tick, actor)
        ``latencies`` table (NaN: unavoidable, ``inf``: absent) and the
        per-camera ``visibility`` bit tables, both with columns in
        ``actor_ids`` order.
        """
        if not len(times):
            raise EstimationError(_EMPTY_SERIES)
        series = cls.__new__(cls)
        series._adopt(
            scenario,
            params,
            l0,
            times,
            np.array([state.speed for state in ego_states], dtype=float),
            np.array([state.accel for state in ego_states], dtype=float),
            tuple(actor_ids),
            latencies,
            camera_fpr_columns(latencies, visibility, params),
        )
        return series

    def _adopt(
        self,
        scenario: str,
        params: ZhuyiParams,
        l0: float,
        times: np.ndarray,
        ego_speed: np.ndarray,
        ego_accel: np.ndarray,
        actor_ids: tuple[Hashable, ...],
        latencies: np.ndarray,
        columns: CameraColumns,
    ) -> None:
        self.scenario = scenario
        self.params = params
        self.l0 = l0
        self.tick_times = times
        self.ego_speed = ego_speed
        self.ego_accel = ego_accel
        self.actor_ids = actor_ids
        self.latency_table = latencies
        self.camera_columns = columns

    @property
    def ticks(self) -> Sequence[EvaluationTick]:
        """The ticks, each built from the columns when accessed."""
        return _SeriesTicks(self)

    def _tick(self, i: int) -> EvaluationTick:
        return EvaluationTick(
            time=float(self.tick_times[i]),
            camera_estimates=self.camera_columns.estimates(i, self.actor_ids),
            actor_latencies={
                actor_id: None if math.isnan(latency) else latency
                for actor_id, latency in zip(
                    self.actor_ids, self.latency_table[i].tolist()
                )
                if latency != np.inf
            },
            ego_speed=float(self.ego_speed[i]),
            ego_accel=float(self.ego_accel[i]),
        )

    def _camera(self, camera: str) -> int:
        """The camera's row in :attr:`camera_columns`."""
        if camera not in self.camera_columns.cameras:
            raise EstimationError(f"no estimate for camera {camera!r}")
        return self.camera_columns.cameras.index(camera)

    def times(self) -> list[float]:
        """Evaluation timestamps (seconds)."""
        return self.tick_times.tolist()

    def camera_latency_series(self, camera: str) -> list[float]:
        """Binding latency of one camera over time (seconds)."""
        return self.camera_columns.latency[self._camera(camera)].tolist()

    def camera_fpr_series(self, camera: str) -> list[float]:
        """FPR estimate of one camera over time."""
        return self.camera_columns.fpr[self._camera(camera)].tolist()

    def ego_accel_series(self) -> list[float]:
        """Ego longitudinal acceleration over time (m/s^2)."""
        return self.ego_accel.tolist()

    def max_fpr(self, camera: str | None = None) -> float:
        """Highest FPR estimate — one camera, or across all cameras.

        Table 1's "maximum estimated FPR" is this value across all
        cameras at all times for one run.
        """
        fpr = self.camera_columns.fpr
        if camera is not None:
            return float(fpr[self._camera(camera)].max())
        return float(fpr.max())

    def max_total_fpr(
        self, cameras: Sequence[str] = ANALYZED_CAMERAS
    ) -> float:
        """Table 1's ``max(F_c1 + F_c2 + F_c3)``.

        The cameras' columns add left to right in ``cameras`` order, the
        order :meth:`EvaluationTick.total_fpr`'s ``sum`` adds them in.
        """
        fpr = self.camera_columns.fpr
        total = 0
        for camera in cameras:
            total = total + fpr[self._camera(camera)]
        return float(np.max(total))

    def fraction_of_provision(
        self,
        provisioned_fpr: float = 30.0,
        cameras: Sequence[str] = ANALYZED_CAMERAS,
    ) -> float:
        """Table 1's last column: peak demand over the 30-FPR provision."""
        return self.max_total_fpr(cameras) / (provisioned_fpr * len(cameras))


class _SeriesTicks(Sequence[EvaluationTick]):
    """:attr:`EvaluationSeries.ticks`: a view building ticks on access."""

    def __init__(self, series: EvaluationSeries):
        self._series = series

    def __len__(self) -> int:
        return self._series.tick_times.size

    def __getitem__(self, index):
        ticks = range(len(self))
        if isinstance(index, slice):
            return [self._series._tick(i) for i in ticks[index]]
        return self._series._tick(ticks[index])


@dataclass(frozen=True)
class TraceSamples:
    """Stride-aligned trajectory samples of one trace.

    Everything here is a pure function of (trace, stride) — the Zhuyi
    constants never enter the sampling — so one :class:`TraceSamples`
    can be shared across every variant evaluated on the same trace
    (the batch campaign's cross-variant cache). Build with
    :func:`presample_trace`; feed to :meth:`OfflineEvaluator.evaluate`
    or :meth:`repro.core.online.OnlineEstimator.replay` via their
    ``samples`` argument.

    The vectorized offline block reads actors through their position
    arrays and trajectories, never as per-tick states. Those are built
    on demand, one actor at a time, for the readers that take state
    objects: the scalar loop and the online replay's perceived views.

    Attributes:
        stride: evaluation period the samples were taken at (seconds).
        times: the tick timestamps, ``start + i * stride``.
        ego_states: ego state at each tick (one batched interpolation).
        actor_states: per-actor states at each tick; an actor's list is
            interpolated the first time it is read.
        actor_trajectories: the full interpolated trajectories, still
            needed by the threat assessor for future lookups.
        actor_positions: per-actor ``(xs, ys)`` position arrays at each
            tick — the same floats as ``actor_states`` positions, kept
            in array form for the batched visibility tables.
        detected: per-actor boolean detection masks over the ticks when
            the samples carry injected perception noise (an undetected
            tick contributes neither a latency demand nor a visible
            actor); ``None`` on noise-free samples.
        noise: the :class:`~repro.perception.noise.PerceptionNoise`
            the samples were drawn under (``None`` when noise-free) —
            evaluators check it against their own setting so a cached
            sample set can never silently cross noise configurations.
    """

    stride: float
    times: np.ndarray
    ego_states: Sequence
    actor_states: Mapping[str, Sequence]
    actor_trajectories: Mapping[str, object]
    actor_positions: Mapping[str, tuple[np.ndarray, np.ndarray]]
    detected: Mapping[str, np.ndarray] | None = None
    noise: PerceptionNoise | None = None

    def check(self, stride: float, noise: PerceptionNoise | None) -> None:
        """Raise :class:`EstimationError` unless these samples were drawn
        at ``stride`` under ``noise`` (a cache never crosses settings)."""
        if abs(self.stride - stride) > 1e-12:
            raise EstimationError(
                f"presampled stride {self.stride} does not match stride "
                f"{stride}"
            )
        if self.noise != effective_noise(noise):
            raise EstimationError(
                f"presampled noise {self.noise} does not match noise {noise}"
            )


class _ActorStates(Mapping[str, Sequence[VehicleState]]):
    """:attr:`TraceSamples.actor_states`: each actor's tick states are
    interpolated when first read. Under noise their positions are the
    perturbed ``positions``, as the eager sampling set them."""

    def __init__(
        self,
        trajectories: Mapping[str, StateTrajectory],
        times: np.ndarray,
        positions: Mapping[str, tuple[np.ndarray, np.ndarray]] | None,
    ):
        self._trajectories = trajectories
        self._times = times
        self._positions = positions
        self._built: dict[str, list[VehicleState]] = {}

    def __getitem__(self, actor_id: str) -> list[VehicleState]:
        states = self._built.get(actor_id)
        if states is None:
            states, _ = self._trajectories[actor_id].sample_ticks(self._times)
            if self._positions is not None:
                xs, ys = self._positions[actor_id]
                states = [
                    replace(state, position=Vec2(float(x), float(y)))
                    for state, x, y in zip(states, xs, ys)
                ]
            self._built[actor_id] = states
        return states

    def __iter__(self) -> Iterator[str]:
        return iter(self._trajectories)

    def __len__(self) -> int:
        return len(self._trajectories)


def effective_noise(noise: PerceptionNoise | None) -> PerceptionNoise | None:
    """Normalize a noise setting: disabled configurations act as ``None``."""
    if noise is not None and noise.enabled:
        return noise
    return None


def presample_trace(
    trace: ScenarioTrace,
    stride: float,
    noise: PerceptionNoise | None = None,
) -> TraceSamples:
    """Sample every trajectory of a trace once at the evaluation stride.

    Tick times are computed as ``start + i * stride``, not by
    accumulating ``t0 += stride``: repeated float addition drifts, which
    on long traces (or near-multiple durations) skips or duplicates the
    final tick. The ego is interpolated in one vectorized call; each
    actor's positions are too, and its per-tick states wait until
    :attr:`TraceSamples.actor_states` is first read for it.

    When ``noise`` is enabled the samples carry the injected
    perception: positions perturbed by the counter-keyed draws, plus
    per-actor detection masks. Every draw is made here, for every
    actor. Draw keys are the tick timestamps themselves (by bit
    pattern), so resampling any window of the same grid — a resumed
    replay, a different shard — reproduces the same injected values
    tick for tick.

    Args:
        trace: the recorded closed-loop run.
        stride: evaluation period along the trace (seconds, positive).
        noise: optional stochastic perception to inject; a disabled
            configuration is equivalent to ``None``.

    Returns:
        A :class:`TraceSamples` reusable by any parameter variant.
    """
    if stride <= 0.0:
        raise EstimationError(f"stride must be positive, got {stride}")
    noise = effective_noise(noise)
    ego_trajectory = trace.ego_trajectory()
    actor_trajectories = {
        actor_id: trace.actor_trajectory(actor_id)
        for actor_id in trace.actor_ids()
    }
    start, end = trace.time_span()
    count = time_grid_count(end - start, stride)
    times = start + stride * np.arange(count)
    actor_positions = {
        actor_id: trajectory.sample_positions(times)
        for actor_id, trajectory in actor_trajectories.items()
    }
    detected: dict[str, np.ndarray] | None = None
    if noise is not None:
        detected = {}
        for actor_id, (xs, ys) in actor_positions.items():
            mask, dx, dy = noise.sample_actor(actor_id, times)
            detected[actor_id] = mask
            actor_positions[actor_id] = (xs + dx, ys + dy)
    return TraceSamples(
        stride=stride,
        times=times,
        ego_states=ego_trajectory.sample_states(times),
        actor_states=_ActorStates(
            actor_trajectories,
            times,
            None if noise is None else actor_positions,
        ),
        actor_trajectories=actor_trajectories,
        actor_positions=actor_positions,
        detected=detected,
        noise=noise,
    )


@dataclass
class OfflineEvaluator:
    """Runs the Zhuyi model over a recorded scenario trace.

    Equation 5 groups actors by the FOVs of the paper's five cameras
    (:func:`~repro.perception.sensor.default_rig`), the rig the
    simulator perceives with.

    Attributes:
        road: road geometry for lateral threat gating.
        params: the Zhuyi constants.
        stride: evaluation period along the trace (seconds). The paper
            evaluates at every simulation step; 50 ms is the coarsest
            stride that still catches the shortest binding windows in
            the catalog scenarios.
        backend: ``"batched"`` (default) and ``"crosstrace"`` evaluate
            the trace as a one-job :func:`evaluate_trace_block`: every
            gated (tick, actor) row solves through the
            :class:`repro.core.engine.LatencyEngine` array kernel, and
            actors group by camera FOV through the trace-level Equation
            5 visibility tables. ``"scalar"`` runs the per-actor,
            per-tick reference loop. Results are bit-identical across
            all three; only the clock differs.
        noise: optional stochastic perception
            (:class:`~repro.perception.noise.PerceptionNoise`) injected
            into the sampled trace: undetected actors place no latency
            demand and join no camera grouping at that tick, and
            position noise perturbs the perceived states. Counter-keyed
            draws keep every backend bit-identical under noise too.
    """

    road: Road
    params: ZhuyiParams = field(default_factory=ZhuyiParams)
    stride: float = 0.05
    backend: str = "batched"
    noise: PerceptionNoise | None = None

    def __post_init__(self) -> None:
        if self.stride <= 0.0:
            raise EstimationError(f"stride must be positive, got {self.stride}")
        if self.backend not in BACKENDS:
            raise EstimationError(
                f"unknown backend {self.backend!r}; choose from {BACKENDS}"
            )
        self._search = LatencySearch(params=self.params)
        self._rig = default_rig()

    def evaluate(
        self,
        trace: ScenarioTrace,
        l0: float | None = None,
        samples: TraceSamples | None = None,
    ) -> EvaluationSeries:
        """Evaluate a full trace.

        Args:
            trace: the recorded closed-loop run.
            l0: the run's processing latency (entering ``alpha``);
                defaults to one frame period of the trace's recorded
                FPR setting.
            samples: pre-built :func:`presample_trace` output to reuse
                (the cross-variant cache); its stride and noise setting
                must match the evaluator's. Omitted, the trace is
                sampled here.

        Returns:
            The per-camera FPR series over the trace.
        """
        if l0 is None:
            l0 = trace.default_l0()

        if samples is None:
            samples = presample_trace(trace, self.stride, noise=self.noise)
        else:
            samples.check(self.stride, self.noise)

        if self.backend != "scalar":
            job = TraceJob(trace=trace, samples=samples, l0=l0, road=self.road)
            return evaluate_trace_block([job], [self.params], self.stride)[0][0]

        assessor = ThreatAssessor(params=self.params, road=self.road)
        times = samples.times
        ego_states = samples.ego_states
        actor_states = samples.actor_states
        actor_trajectories = samples.actor_trajectories

        # The collision gate for every (actor, tick) pair, one batched
        # pass per actor instead of a per-tick Python loop (verdicts
        # identical — see ThreatAssessor.could_collide_trace).
        gate_tables = {
            actor_id: assessor.could_collide_trace(
                ego_states,
                trace.ego_spec,
                trajectory,
                trace.actor_spec(actor_id),
                times,
            )
            for actor_id, trajectory in actor_trajectories.items()
        }
        # Injected misses gate exactly like geometric impossibility: an
        # undetected actor places no latency demand at that tick.
        if samples.detected is not None:
            gate_tables = {
                actor_id: table & samples.detected[actor_id]
                for actor_id, table in gate_tables.items()
            }
        ticks = [
            self._evaluate_tick(
                float(times[i]),
                ego_states[i],
                {actor_id: states[i] for actor_id, states in actor_states.items()},
                {actor_id: table[i] for actor_id, table in gate_tables.items()},
                trace,
                actor_trajectories,
                assessor,
                l0,
                detected=(
                    None
                    if samples.detected is None
                    else {
                        actor_id: bool(mask[i])
                        for actor_id, mask in samples.detected.items()
                    }
                ),
            )
            for i in range(len(times))
        ]
        return EvaluationSeries(
            scenario=trace.scenario,
            ticks=ticks,
            params=self.params,
            l0=l0,
            actor_ids=actor_trajectories,
        )

    def _evaluate_tick(
        self,
        t0: float,
        ego_state,
        actor_states_now,
        gates,
        trace: ScenarioTrace,
        actor_trajectories,
        assessor: ThreatAssessor,
        l0: float,
        detected: Mapping[str, bool] | None = None,
    ) -> EvaluationTick:
        """One tick of the scalar reference: per actor, per candidate."""
        # An undetected actor is invisible to perception this tick: it
        # joins no camera grouping (its gate is already off upstream).
        actor_positions = {
            actor_id: actor_states_now[actor_id].position
            for actor_id in actor_trajectories
            if detected is None or detected[actor_id]
        }
        ego_motion = EgoMotion.from_state(
            ego_state.speed, ego_state.accel, self.params
        )
        # Offline: |T| = 1, so Equation 4 reduces to the single value.
        actor_latencies: dict[str, float | None] = {}
        for actor_id, trajectory in actor_trajectories.items():
            if not gates[actor_id]:
                continue
            threat = assessor.build_threat(
                ego_state,
                trace.ego_spec,
                trajectory,
                trace.actor_spec(actor_id),
                t0=t0,
            )
            actor_latencies[actor_id] = self._search.tolerable_latency(
                ego_motion, threat, l0
            ).latency

        return EvaluationTick.at(
            t0,
            ego_state,
            actor_latencies,
            self._rig.visible_actors(ego_state, actor_positions),
            self.params,
        )


@dataclass(frozen=True)
class TraceJob:
    """One trace of a cross-trace evaluation block.

    Attributes:
        trace: the recorded closed-loop run.
        samples: its :func:`presample_trace` output at the block stride.
        l0: the run's processing latency (enters ``alpha``).
        road: road geometry for this trace's lateral gating.
    """

    trace: ScenarioTrace
    samples: TraceSamples
    l0: float
    road: Road


#: Element budget of one block window: stacked ticks x actors x
#: variants x scan instants per :meth:`LatencyEngine.solve_rows` call
#: stays near this — big enough to amortize per-call overhead, small
#: enough that the (variant, row) scans stay cache-friendly instead of
#: memory-bound. The row arrays hold one copy of each row however many
#: variants solve it (at most ~2 x 16 MB of float64 samples, 1/V of
#: that under V variants); widening the windows by V to fill that
#: budget with rows measured slower.
_ROW_ELEMENTS = 2_000_000


def evaluate_trace_block(
    jobs: Sequence[TraceJob],
    variants: Sequence[ZhuyiParams],
    stride: float,
) -> list[list[EvaluationSeries]]:
    """Evaluate many traces under many parameter variants in one block.

    The vectorized evaluation path: a single-trace
    :meth:`OfflineEvaluator.evaluate` is a one-job block, and the
    campaign super-cell a many-job one. Instead of one evaluator pass
    per (trace, variant), the whole block shares its array programs —

    * Equation 5 visibility bit tables build in one
      :meth:`~repro.perception.sensor.CameraRig.visibility_traces`
      pass over every trace's concatenated ticks, detection masks
      ANDed in, shared by all variants (FOV membership never depends
      on the Zhuyi constants);
    * variants group by :meth:`~repro.core.parameters.ZhuyiParams.
      solver_grid_key` — within a group, gates, threat samples and the
      candidate grid are common, and only the Eq 1/2 ``c1``/``c2``
      comparisons differ, carried as the row solver's variant axis;
    * within a group, traces sharing ``l0`` stack into one
      :meth:`~repro.core.engine.LatencyEngine.trace_grid` whose tick
      axis concatenates their ego motions. Gates and ego path rows are
      built once per trace; then :func:`solve_row_sources` samples
      every gated (trace, tick, actor) row once, one bounded window of
      stacked ticks at a time, and solves the window under all of the
      group's variants through one
      :meth:`~repro.core.engine.LatencyEngine.solve_rows` call. The
      windows bound the block's peak memory however many traces and
      variants it holds;
    * each solved latency lands in one (tick, actor) table per (trace,
      variant), and :meth:`EvaluationSeries.rollup` runs Equation 5 on
      the table and the visibility bit tables as one array program.
      The series keep these columns; no per-tick object is built.

    Every constituent kernel is bit-identical to its per-tick scalar
    counterpart (see each method's parity argument), so the returned
    series equal ``backend="scalar"`` evaluations element for element.

    Args:
        jobs: the traces, presampled at ``stride``. Noise-injected
            samples travel self-contained — their detection masks AND
            into the gates and visibility groupings here exactly as the
            scalar :meth:`OfflineEvaluator.evaluate` applies them.
        variants: the parameter variants to evaluate each trace under.
        stride: evaluation period (must match every job's samples).

    Returns:
        ``series[j][v]``: job ``j`` evaluated under variant ``v``.
    """
    if not variants:
        raise EstimationError("evaluate_trace_block needs at least one variant")
    for job in jobs:
        if abs(job.samples.stride - stride) > 1e-12:
            raise EstimationError(
                f"presampled stride {job.samples.stride} does not match "
                f"block stride {stride}"
            )
    if not jobs:
        return []

    visibility = default_rig().visibility_traces(
        [
            (job.samples.ego_states, job.samples.actor_positions)
            for job in jobs
        ],
        detected=[job.samples.detected for job in jobs],
    )

    output: list[list[EvaluationSeries | None]] = [
        [None] * len(variants) for _ in jobs
    ]

    # Variant groups: equal solver_grid_key = everything but c1/c2
    # shared (grid, gates, ego profiles, threat samples).
    groups: dict[ZhuyiParams, list[int]] = {}
    for v, params in enumerate(variants):
        groups.setdefault(params.solver_grid_key(), []).append(v)

    for vlist in groups.values():
        # Per (job, variant): the (tick, actor) latency table, actors in
        # trajectory order; inf until a solved row fills it in.
        tables = {
            (j, v): np.full(
                (job.samples.times.size, len(job.samples.actor_trajectories)),
                np.inf,
            )
            for j, job in enumerate(jobs)
            for v in vlist
        }
        # Stack traces sharing l0 into one grid (reactions — hence the
        # master time axis — depend on l0).
        l0_groups: dict[float, list[int]] = {}
        for j, job in enumerate(jobs):
            l0_groups.setdefault(job.l0, []).append(j)
        for l0, job_indices in l0_groups.items():
            _solve_stack(jobs, job_indices, l0, variants, vlist, tables)

        for j, job in enumerate(jobs):
            samples = job.samples
            for v in vlist:
                output[j][v] = EvaluationSeries.rollup(
                    job.trace.scenario,
                    variants[v],
                    job.l0,
                    samples.times,
                    samples.ego_states,
                    tuple(samples.actor_trajectories),
                    tables[(j, v)],
                    visibility[j],
                )
    return [list(row) for row in output]


def _solve_stack(
    jobs: Sequence[TraceJob],
    job_indices: Sequence[int],
    l0: float,
    variants: Sequence[ZhuyiParams],
    vlist: Sequence[int],
    tables: dict[tuple[int, int], np.ndarray],
) -> None:
    """Solve one l0 stack of a variant group into ``tables``.

    The jobs' ticks concatenate into one :meth:`LatencyEngine.trace_grid`;
    each (job, actor) with any gated tick is one source of
    :func:`solve_row_sources`, sampled through
    :meth:`ThreatAssessor.sample_threats_trace`, and each source's
    solved latencies scatter into its actor's column of every variant's
    (tick, actor) table.
    """
    gparams = variants[vlist[0]]
    engine = LatencyEngine(params=gparams)
    motions: list[EgoMotion] = []
    offsets: list[int] = []
    for j in job_indices:
        offsets.append(len(motions))
        motions.extend(
            EgoMotion.from_state(state.speed, state.accel, gparams)
            for state in jobs[j].samples.ego_states
        )
    grid = engine.trace_grid(motions, l0)

    # Gates and ego path rows once per job: one source per (job, actor)
    # with any gated tick, holding its gated stacked tick indices.
    owners: list[tuple[int, int, int]] = []
    sources = []
    for j, offset in zip(job_indices, offsets):
        job = jobs[j]
        samples = job.samples
        assessor = ThreatAssessor(params=gparams, road=job.road)
        ego_rows = assessor.ego_path_rows(samples.ego_states)
        for column, (actor_id, trajectory) in enumerate(
            samples.actor_trajectories.items()
        ):
            spec = job.trace.actor_spec(actor_id)
            gate = assessor.could_collide_trace(
                samples.ego_states,
                job.trace.ego_spec,
                trajectory,
                spec,
                samples.times,
                ego_rows=ego_rows,
            )
            if samples.detected is not None:
                # Injected misses gate like geometric impossibility: an
                # undetected actor places no latency demand at that tick.
                gate = gate & samples.detected[actor_id]
            gated = offset + np.flatnonzero(gate)
            if gated.size:
                owners.append((j, column, offset))
                sources.append(
                    (
                        gated,
                        partial(
                            _sample_trace_rows,
                            assessor, job, ego_rows, trajectory, spec, offset,
                        ),
                    )
                )

    solved_rows = solve_row_sources(
        engine,
        grid,
        motions,
        sources,
        max(len(jobs[j].samples.actor_trajectories) for j in job_indices),
        np.array([variants[v].c1 for v in vlist]),
        np.array([variants[v].c2 for v in vlist]),
    )
    for source, ticks, latencies in solved_rows:
        j, column, offset = owners[source]
        for v, latency in zip(vlist, latencies):
            tables[(j, v)][ticks - offset, column] = latency


def _sample_trace_rows(
    assessor: ThreatAssessor,
    job: TraceJob,
    ego_rows: EgoPathRows,
    trajectory,
    spec,
    offset: int,
    ticks: np.ndarray,
    layout: CorridorLayout,
) -> tuple[np.ndarray, np.ndarray]:
    """One (job, actor) source's rows at stacked ``ticks``."""
    local = ticks - offset
    samples = job.samples
    return assessor.sample_threats_trace(
        [samples.ego_states[i] for i in local],
        job.trace.ego_spec,
        trajectory,
        spec,
        samples.times[local],
        layout.rel_times,
        ego_rows=ego_rows.take(local),
        layout=layout,
    )


def solve_row_sources(
    engine: LatencyEngine,
    grid: TraceGrid,
    motions: Sequence[EgoMotion],
    sources: Sequence[tuple[np.ndarray, Callable]],
    rows_per_tick: int,
    c1s: np.ndarray,
    c2s: np.ndarray,
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Solve every gated row of ``sources``, one window of ticks at a time.

    The one vectorized row solver: the offline block feeds it a source
    per (trace, actor), the online replay one per (actor, prediction
    hypothesis), and each keeps its own reduction. A source is a pair
    ``(ticks, sample)``: the sorted stacked ticks its threat is gated
    at, and ``sample(ticks, layout)`` returning its ``(s_n, v_an)``
    rows at a subset of them, sampled on ``layout.rel_times``.

    A window of stacked ticks holds about ``_ROW_ELEMENTS`` elements at
    ``rows_per_tick x len(c1s)`` (row, constraint pair) answers of
    ``T + L`` columns per tick. Its sources sample their ticks once
    over the master prefix the window's ticks read
    (:meth:`TraceGrid.readable_prefix`) plus the ``L`` reactions,
    whose :class:`~repro.core.threat.CorridorLayout` the window builds
    once for all of its sources, and the window's rows solve under
    every constraint pair ``(c1s[v], c2s[v])`` in one
    :meth:`LatencyEngine.solve_rows` call. Rows solve independently:
    windows bound memory, not results.

    Yields:
        ``(source, ticks, latencies)``: ``source`` indexes ``sources``,
        ``ticks`` are its ticks in the window and ``latencies[v, k]``,
        a slice of the window's solved latency column, the tolerable
        latency of ``ticks[k]`` under constraint pair ``v`` (NaN: no
        feasible candidate).
    """
    n_variants = len(c1s)
    n_columns = grid.times.size + grid.reactions.size
    window = max(
        1,
        int(_ROW_ELEMENTS / (n_columns * max(1, rows_per_tick) * n_variants)),
    )
    for start in range(0, len(motions), window):
        stop = start + window
        picked = []
        for index, (gated, sample) in enumerate(sources):
            ticks = gated[
                np.searchsorted(gated, start) : np.searchsorted(gated, stop)
            ]
            if ticks.size:
                picked.append((index, ticks, sample))
        if not picked:
            continue
        # Rows carry only the master prefix their ticks read: ticks
        # with shorter horizons than the grid's longest skip the tail
        # (solve_rows masks it for them anyway).
        prefix = grid.readable_prefix(
            np.concatenate([ticks for _, ticks, _ in picked])
        )
        layout = CorridorLayout.of(
            np.concatenate([grid.times[:prefix], grid.reactions])
        )
        tick_chunks: list[np.ndarray] = []
        gap_chunks: list[np.ndarray] = []
        speed_chunks: list[np.ndarray] = []
        for _, ticks, sample in picked:
            gaps, speeds = sample(ticks, layout)
            tick_chunks.append(ticks)
            gap_chunks.append(gaps)
            speed_chunks.append(speeds)
        results = engine.solve_rows(
            grid,
            np.concatenate(tick_chunks),
            motions,
            np.vstack(gap_chunks),
            np.vstack(speed_chunks),
            constraints=(c1s, c2s),
        )
        latencies = results.latency.reshape(n_variants, -1)
        position = 0
        for index, ticks, _ in picked:
            yield index, ticks, latencies[:, position : position + ticks.size]
            position += ticks.size
