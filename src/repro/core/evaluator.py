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

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Hashable, Iterator, Mapping, Sequence

import numpy as np

from repro.core.ego_profile import EgoMotion
from repro.core.engine import LatencyEngine, TraceGrid
from repro.core.fpr import CameraEstimate, estimate_camera_fprs
from repro.core.latency import BACKENDS, LatencyResult, LatencySearch
from repro.core.parameters import ZhuyiParams
from repro.core.threat import CorridorLayout, EgoPathRows, ThreatAssessor
from repro.errors import EstimationError
from repro.geometry.vec import Vec2
from repro.perception.noise import PerceptionNoise
from repro.perception.sensor import ANALYZED_CAMERAS, CameraRig, default_rig
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
        """The Equation 5 rollup of one instant — the one tick builder
        of the offline loop and block, the live estimate and the replay."""
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


class EvaluationSeries:
    """A time series of evaluation ticks with the paper's summaries."""

    def __init__(
        self,
        scenario: str,
        ticks: Sequence[EvaluationTick],
        params: ZhuyiParams,
        l0: float,
    ):
        if not ticks:
            raise EstimationError("an evaluation series needs at least one tick")
        self.scenario = scenario
        self.ticks = list(ticks)
        self.params = params
        self.l0 = l0

    def times(self) -> list[float]:
        """Evaluation timestamps (seconds)."""
        return [tick.time for tick in self.ticks]

    def camera_latency_series(self, camera: str) -> list[float]:
        """Binding latency of one camera over time (seconds)."""
        return [tick.latency(camera) for tick in self.ticks]

    def camera_fpr_series(self, camera: str) -> list[float]:
        """FPR estimate of one camera over time."""
        return [tick.fpr(camera) for tick in self.ticks]

    def ego_accel_series(self) -> list[float]:
        """Ego longitudinal acceleration over time (m/s^2)."""
        return [tick.ego_accel for tick in self.ticks]

    def max_fpr(self, camera: str | None = None) -> float:
        """Highest FPR estimate — one camera, or across all cameras.

        Table 1's "maximum estimated FPR" is this value across all
        cameras at all times for one run.
        """
        if camera is not None:
            return max(self.camera_fpr_series(camera))
        return max(
            estimate.fpr
            for tick in self.ticks
            for estimate in tick.camera_estimates.values()
        )

    def max_total_fpr(
        self, cameras: Sequence[str] = ANALYZED_CAMERAS
    ) -> float:
        """Table 1's ``max(F_c1 + F_c2 + F_c3)``."""
        return max(tick.total_fpr(cameras) for tick in self.ticks)

    def fraction_of_provision(
        self,
        provisioned_fpr: float = 30.0,
        cameras: Sequence[str] = ANALYZED_CAMERAS,
    ) -> float:
        """Table 1's last column: peak demand over the 30-FPR provision."""
        return self.max_total_fpr(cameras) / (provisioned_fpr * len(cameras))


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

    Attributes:
        stride: evaluation period the samples were taken at (seconds).
        times: the tick timestamps, ``start + i * stride``.
        ego_states: ego state at each tick (one batched interpolation).
        actor_states: per-actor states at each tick.
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

    Tick times are computed as ``start + i * stride`` rather than by
    accumulating ``t0 += stride``: repeated float addition drifts, which
    on long traces (or near-multiple durations) skips or duplicates the
    final tick. Each vehicle is interpolated in one vectorized call
    instead of a bisect-based ``state_at`` per tick.

    When ``noise`` is enabled the sampled actor states carry the
    injected perception: positions perturbed by the counter-keyed
    draws, plus per-actor detection masks. Draw keys are the tick
    timestamps themselves (by bit pattern), so resampling any window of
    the same grid — a resumed replay, a different shard — reproduces
    the same injected values tick for tick.

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
    # One interpolation pass per actor yields both the state objects
    # and the position arrays (StateTrajectory.sample_ticks).
    actor_ticks = {
        actor_id: trajectory.sample_ticks(times)
        for actor_id, trajectory in actor_trajectories.items()
    }
    detected: dict[str, np.ndarray] | None = None
    if noise is not None:
        detected = {}
        for actor_id, (states, (xs, ys)) in list(actor_ticks.items()):
            mask, dx, dy = noise.sample_actor(actor_id, times)
            detected[actor_id] = mask
            xs = xs + dx
            ys = ys + dy
            states = [
                replace(state, position=Vec2(float(x), float(y)))
                for state, x, y in zip(states, xs, ys)
            ]
            actor_ticks[actor_id] = (states, (xs, ys))
    return TraceSamples(
        stride=stride,
        times=times,
        ego_states=ego_trajectory.sample_states(times),
        actor_states={
            actor_id: states for actor_id, (states, _) in actor_ticks.items()
        },
        actor_trajectories=actor_trajectories,
        actor_positions={
            actor_id: positions
            for actor_id, (_, positions) in actor_ticks.items()
        },
        detected=detected,
        noise=noise,
    )


@dataclass
class OfflineEvaluator:
    """Runs the Zhuyi model over a recorded scenario trace.

    Attributes:
        params: the Zhuyi constants.
        rig: camera rig used for FOV grouping (the paper's five cameras).
        road: road geometry for lateral threat gating (falls back to the
            ego heading frame when omitted).
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

    params: ZhuyiParams = field(default_factory=ZhuyiParams)
    rig: CameraRig = field(default_factory=default_rig)
    road: Road | None = None
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
            return evaluate_trace_block(
                [job], [self.params], self.stride, rig=self.rig
            )[0][0]

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
            scenario=trace.scenario, ticks=ticks, params=self.params, l0=l0
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
            self.rig.visible_actors(ego_state, actor_positions),
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
    road: Road | None = None


#: Row-element budget of one block window: stacked ticks x actors x
#: variants x scan instants of threat samples per
#: :meth:`LatencyEngine.solve_rows` call stays near this — big enough to
#: amortize per-call overhead, small enough that the row arrays (~2 x 16
#: MB of float64 samples) stay cache-friendly instead of memory-bound.
_ROW_ELEMENTS = 2_000_000


def evaluate_trace_block(
    jobs: Sequence[TraceJob],
    variants: Sequence[ZhuyiParams],
    stride: float,
    rig: CameraRig | None = None,
) -> list[list[EvaluationSeries]]:
    """Evaluate many traces under many parameter variants in one block.

    The vectorized evaluation path: a single-trace
    :meth:`OfflineEvaluator.evaluate` is a one-job block, and the
    campaign super-cell a many-job one. Instead of one evaluator pass
    per (trace, variant), the whole block shares its array programs —

    * Equation 5 visibility tables build in one
      :meth:`~repro.perception.sensor.CameraRig.visible_actors_traces`
      pass over every trace's concatenated ticks, shared by all
      variants (FOV membership never depends on the Zhuyi constants);
    * variants group by :meth:`~repro.core.parameters.ZhuyiParams.
      solver_grid_key` — within a group, gates, threat samples and the
      candidate grid are common, and only the Eq 1/2 ``c1``/``c2``
      comparisons differ, carried as per-row constraint columns;
    * within a group, traces sharing ``l0`` stack into one
      :meth:`~repro.core.engine.LatencyEngine.trace_grid` whose tick
      axis concatenates their ego motions. Gates and ego path rows are
      built once per trace; then :func:`solve_row_sources` samples
      every gated (trace, tick, actor) row one bounded window of
      stacked ticks at a time, tiles it once per variant and solves the
      window through one
      :meth:`~repro.core.engine.LatencyEngine.solve_rows` call. The
      windows bound the block's peak memory however many traces and
      variants it holds.

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
        rig: camera rig (the paper's five-camera default when omitted).

    Returns:
        ``series[j][v]``: job ``j`` evaluated under variant ``v``.
    """
    if not variants:
        raise EstimationError("evaluate_trace_block needs at least one variant")
    if rig is None:
        rig = default_rig()
    for job in jobs:
        if abs(job.samples.stride - stride) > 1e-12:
            raise EstimationError(
                f"presampled stride {job.samples.stride} does not match "
                f"block stride {stride}"
            )
    if not jobs:
        return []

    visibility_tables = rig.visible_actors_traces(
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
        # Per (job, variant): per-tick {actor: latency} dictionaries,
        # gated actors only.
        tables: dict[tuple[int, int], list[dict[str, float | None]]] = {
            (j, v): [{} for _ in job.samples.times]
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

        # Assemble each (job, variant) series: trajectory-ordered
        # latency dictionaries, shared visibility tables, Equation 5
        # rollup.
        for j, job in enumerate(jobs):
            samples = job.samples
            order = list(samples.actor_trajectories)
            for v in vlist:
                ticks = []
                for i, t0 in enumerate(samples.times):
                    table = tables[(j, v)][i]
                    ticks.append(
                        EvaluationTick.at(
                            float(t0),
                            samples.ego_states[i],
                            {
                                actor_id: table[actor_id]
                                for actor_id in order
                                if actor_id in table
                            },
                            visibility_tables[j][i],
                            variants[v],
                        )
                    )
                output[j][v] = EvaluationSeries(
                    scenario=job.trace.scenario,
                    ticks=ticks,
                    params=variants[v],
                    l0=job.l0,
                )
    return [list(row) for row in output]


def _solve_stack(
    jobs: Sequence[TraceJob],
    job_indices: Sequence[int],
    l0: float,
    variants: Sequence[ZhuyiParams],
    vlist: Sequence[int],
    tables: dict[tuple[int, int], list[dict[str, float | None]]],
) -> None:
    """Solve one l0 stack of a variant group into ``tables``.

    The jobs' ticks concatenate into one :meth:`LatencyEngine.trace_grid`;
    each (job, actor) with any gated tick is one source of
    :func:`solve_row_sources`, sampled through
    :meth:`ThreatAssessor.sample_threats_trace`, and each solved row
    stores its ``result.latency`` under every variant of the group.
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
    owners: list[tuple[int, str, int]] = []
    sources = []
    for j, offset in zip(job_indices, offsets):
        job = jobs[j]
        samples = job.samples
        assessor = ThreatAssessor(params=gparams, road=job.road)
        ego_rows = assessor.ego_path_rows(samples.ego_states)
        for actor_id, trajectory in samples.actor_trajectories.items():
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
                owners.append((j, actor_id, offset))
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
    for source, ticks, solved in solved_rows:
        j, actor_id, offset = owners[source]
        for v, results in zip(vlist, solved):
            for tick, result in zip(ticks - offset, results):
                tables[(j, v)][int(tick)][actor_id] = result.latency


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
) -> Iterator[tuple[int, np.ndarray, list[list[LatencyResult]]]]:
    """Solve every gated row of ``sources``, one window of ticks at a time.

    The one vectorized row solver: the offline block feeds it a source
    per (trace, actor), the online replay one per (actor, prediction
    hypothesis), and each keeps its own reduction. A source is a pair
    ``(ticks, sample)``: the sorted stacked ticks its threat is gated
    at, and ``sample(ticks, layout)`` returning its ``(s_n, v_an)``
    rows at a subset of them, sampled on ``layout.rel_times``.

    A window of stacked ticks holds about ``_ROW_ELEMENTS`` elements at
    ``rows_per_tick x len(c1s)`` rows of ``T + L`` columns per tick.
    Its sources sample their ticks over the master prefix the window's
    ticks read (:meth:`TraceGrid.readable_prefix`) plus the ``L``
    reactions, whose :class:`~repro.core.threat.CorridorLayout` the
    window builds once for all of its sources; each row is tiled once
    per constraint pair ``(c1s[v], c2s[v])`` into one
    :meth:`LatencyEngine.solve_rows` call. Rows solve independently:
    windows bound memory, not results.

    Yields:
        ``(source, ticks, solved)``: ``source`` indexes ``sources``,
        ``ticks`` are its ticks in the window and ``solved[v][k]`` the
        result of ``ticks[k]`` under constraint pair ``v``.
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
        width = sum(ticks.size for ticks in tick_chunks)
        results = engine.solve_rows(
            grid,
            np.concatenate(tick_chunks * n_variants),
            motions,
            np.vstack(gap_chunks * n_variants),
            np.vstack(speed_chunks * n_variants),
            constraints=(np.repeat(c1s, width), np.repeat(c2s, width)),
        )
        position = 0
        for index, ticks, _ in picked:
            starts = np.arange(n_variants) * width + position
            yield index, ticks, [
                results[start : start + ticks.size] for start in starts
            ]
            position += ticks.size
