"""Post-deployment online estimation (Section 3.2).

"The ego and actors current states are obtained from the perceived world
model, and future states are obtained from predicted trajectories."

Per call the estimator asks the predictor for a probabilistic set of
futures per confirmed actor, solves the tolerable latency against each
future, aggregates with Equation 4 (percentile by default) and produces
Equation 5 per-camera estimates grouped by FOV at the perceived actor
positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Mapping, Sequence

import numpy as np

from repro.core.aggregation import Aggregator, PercentileAggregator
from repro.core.ego_profile import EgoMotion
from repro.core.engine import LatencyEngine
from repro.core.evaluator import (
    EvaluationSeries,
    EvaluationTick,
    presample_trace,
)
from repro.core.fpr import estimate_camera_fprs
from repro.core.latency import BACKENDS, UNAVOIDABLE_LATENCY, LatencySearch
from repro.core.parameters import ZhuyiParams
from repro.core.threat import LongitudinalThreat, ThreatAssessor
from repro.dynamics.state import VehicleSpec, VehicleState
from repro.errors import EstimationError
from repro.perception.noise import PerceptionNoise
from repro.perception.sensor import CameraRig, default_rig
from repro.perception.world_model import PerceivedActor, WorldModel
from repro.prediction.base import (
    Predictor,
    TraceHypothesis,
    predict_trace_via_loop,
)
from repro.road.track import Road
from repro.sim.trace import ScenarioTrace


@dataclass(frozen=True)
class _MarginThreat:
    """Decorator shrinking the gap — the perception-uncertainty extension.

    Wraps any threat and subtracts a safety margin from ``s_n``,
    modelling position uncertainty in the perceived world model. This is
    the hook the paper's future-work section sketches ("extended to
    account for perception uncertainty").
    """

    inner: LongitudinalThreat
    margin: float

    def gap_at(self, t: float) -> float:
        return max(0.0, self.inner.gap_at(t) - self.margin)

    def actor_speed_at(self, t: float) -> float:
        return self.inner.actor_speed_at(t)

    def sample(self, times):
        gaps, speeds = self.inner.sample(times)
        return np.maximum(0.0, gaps - self.margin), speeds


@dataclass
class OnlineEstimator:
    """The Zhuyi block of Figure 3: world model + predictions in, FPRs out.

    Attributes:
        params: the Zhuyi constants.
        predictor: trajectory predictor supplying the set ``T`` of Eq 4.
        rig: camera rig for FOV grouping.
        aggregator: Equation 4 reduction (paper default: 99th percentile).
        road: road geometry for threat gating.
        gap_margin: optional perception-uncertainty margin subtracted
            from every gap (metres); 0 disables the extension.
        assumed_actor_spec: physical spec attributed to perceived actors
            (the world model carries no extent information).
        backend: ``"batched"`` (default) and ``"crosstrace"`` solve the
            tick's full batch — every predicted future of every
            confirmed actor — in one
            :class:`repro.core.engine.LatencyEngine` call (one estimator
            never sees more than one trace, so the two names run the
            same program); ``"scalar"`` loops the reference search.
            Bit-identical estimates.
        noise: optional stochastic perception injected into
            :meth:`replay` (undetected ticks drop the actor from the
            replayed world model; position noise perturbs the perceived
            states the predictor sees). Counter-keyed draws keep the
            scalar and batched replays bit-identical under noise, from
            any resume tick. Live :meth:`estimate` calls read a real
            world model and never consult this field.
    """

    params: ZhuyiParams
    predictor: Predictor
    rig: CameraRig = field(default_factory=default_rig)
    aggregator: Aggregator = field(default_factory=PercentileAggregator)
    road: Road | None = None
    gap_margin: float = 0.0
    assumed_actor_spec: VehicleSpec = field(default_factory=VehicleSpec)
    backend: str = "batched"
    noise: PerceptionNoise | None = None

    def __post_init__(self) -> None:
        if self.gap_margin < 0.0:
            raise EstimationError("gap margin must be non-negative")
        if self.backend not in BACKENDS:
            raise EstimationError(
                f"unknown backend {self.backend!r}; choose from {BACKENDS}"
            )
        self._search = LatencySearch(params=self.params)
        self._engine = None
        if self.backend != "scalar":
            self._engine = LatencyEngine(params=self.params)

    def estimate(
        self,
        now: float,
        ego_state: VehicleState,
        ego_spec: VehicleSpec,
        world_model: WorldModel,
        l0: float,
        visibility: Mapping[str, Sequence[Hashable]] | None = None,
    ) -> EvaluationTick:
        """One online estimation tick.

        Args:
            now: current time (seconds).
            ego_state: the ego's (localized) state.
            ego_spec: the ego's physical spec.
            world_model: confirmed perceived actors.
            l0: the perception stack's current processing latency (s).
            visibility: precomputed Equation 5 FOV grouping for this
                tick (the :meth:`replay` batch path passes one slice of
                the trace-level visibility tables); ``None`` groups
                per-tick through ``rig.visible_actors``.

        Returns:
            The same tick structure the offline evaluator produces, so
            downstream consumers (safety check, prioritization, figures)
            are agnostic to where estimates came from.
        """
        assessor = ThreatAssessor(params=self.params, road=self.road)
        ego_motion = EgoMotion.from_state(
            ego_state.speed, ego_state.accel, self.params
        )

        # First pass: assess every predicted future of every confirmed
        # actor, collecting the tick's full threat batch.
        actor_positions = {}
        per_actor: list[tuple[str, list[tuple[float, object | None]]]] = []
        for perceived in world_model:
            actor_positions[perceived.actor_id] = perceived.position
            predictions = self.predictor.predict(
                perceived, now, self.params.horizon
            )
            entries: list[tuple[float, object | None]] = []
            for prediction in predictions:
                threat = assessor.assess(
                    ego_state,
                    ego_spec,
                    prediction.trajectory,
                    self.assumed_actor_spec,
                    t0=now,
                )
                if threat is not None and self.gap_margin > 0.0:
                    threat = _MarginThreat(
                        inner=threat, margin=self.gap_margin
                    )
                entries.append((prediction.probability, threat))
            per_actor.append((perceived.actor_id, entries))

        # One kernel call covers the whole tick (all actors, all
        # futures); the scalar backend loops in the same order.
        batch = [
            threat
            for _, entries in per_actor
            for _, threat in entries
            if threat is not None
        ]
        if self._engine is not None:
            solved = iter(self._engine.solve_batch(ego_motion, batch, l0))
        else:
            solved = iter(
                self._search.tolerable_latency(ego_motion, threat, l0)
                for threat in batch
            )

        actor_latencies: dict[str, float | None] = {}
        for actor_id, entries in per_actor:
            is_threat, latency = self._aggregate(entries, solved)
            if is_threat:
                actor_latencies[actor_id] = latency

        if visibility is None:
            visibility = self.rig.visible_actors(ego_state, actor_positions)
        estimates = estimate_camera_fprs(actor_latencies, visibility, self.params)
        return EvaluationTick(
            time=now,
            camera_estimates=estimates,
            actor_latencies=actor_latencies,
            ego_speed=ego_state.speed,
            ego_accel=ego_state.accel,
        )

    def replay(
        self,
        trace: ScenarioTrace,
        l0: float | None = None,
        period: float = 0.1,
    ) -> EvaluationSeries:
        """Post-deployment replay of a recorded trace.

        The trace-level counterpart of calling :meth:`estimate` in a
        loop: the recorded ground truth stands in for a perfect
        perception stack (every actor confirmed, zero staleness), the
        predictor supplies each actor's future set at every tick, and
        Equations 4-5 aggregate exactly as they do live. An estimator
        built with ``noise`` replays an *imperfect* stack instead — the
        trace-level fault-injection style of Antonante et al. 2023:
        undetected actors vanish from the replayed world model for that
        tick and perceived positions carry the counter-keyed jitter.

        With ``backend="batched"`` (or ``"crosstrace"``) the whole
        replay is one array program: the predictor's batch protocol
        (``predict_trace``) rolls every hypothesis out over all ticks at
        once, the threat assessor gates and samples each hypothesis'
        futures batch
        (:meth:`repro.core.threat.ThreatAssessor.could_collide_futures`
        / ``sample_threat_futures``), every surviving (tick, actor,
        hypothesis) row solves through a single
        :meth:`repro.core.engine.LatencyEngine.trace_grid` +
        ``solve_rows`` call, Equation 4 aggregates row batches through
        the aggregator's vectorized path and the Equation 5 FOV
        grouping comes from one
        :meth:`repro.perception.sensor.CameraRig.visible_actors_trace`
        array program. ``"scalar"`` replays the per-tick reference
        loop. The two are bit-identical; predictors whose output the
        batch path cannot stack (ragged hypothesis sets) fall back to
        the per-tick loop.

        Args:
            trace: the recorded closed-loop run.
            l0: processing latency entering the model; defaults to one
                frame period of the trace's recorded FPR setting.
            period: estimation cadence along the trace (seconds).

        Returns:
            The replayed tick series (same structure as the offline
            evaluator's output).
        """
        if l0 is None:
            l0 = trace.default_l0()
        # The offline evaluator's presampler supplies the tick grid and
        # the per-tick states/positions (noise-injected when the
        # estimator carries a noise model), so replay ticks land on
        # exactly the grid an OfflineEvaluator with stride=period
        # evaluates — and draw the exact same injected perception.
        samples = presample_trace(trace, period, noise=self.noise)
        times = samples.times
        ego_states = samples.ego_states
        actor_states = samples.actor_states
        detected = samples.detected

        visibility_tables = None
        if self._engine is not None:
            visibility_tables = self.rig.visible_actors_trace(
                ego_states, samples.actor_positions, detected=detected
            )
            ticks = self._replay_batched(
                trace, samples, l0, visibility_tables
            )
            if ticks is not None:
                return EvaluationSeries(
                    scenario=trace.scenario,
                    ticks=ticks,
                    params=self.params,
                    l0=l0,
                )

        ticks = []
        for i in range(len(times)):
            now = float(times[i])
            world = WorldModel()
            for actor_id, states in actor_states.items():
                if detected is not None and not detected[actor_id][i]:
                    # An injected miss: the actor never reached the
                    # replayed world model this tick.
                    continue
                state = states[i]
                world.upsert(
                    PerceivedActor(
                        actor_id=actor_id,
                        position=state.position,
                        velocity=state.velocity(),
                        heading=state.heading,
                        speed=state.speed,
                        accel=state.accel,
                        timestamp=now,
                    )
                )
            ticks.append(
                self.estimate(
                    now=now,
                    ego_state=ego_states[i],
                    ego_spec=trace.ego_spec,
                    world_model=world,
                    l0=l0,
                    visibility=(
                        None
                        if visibility_tables is None
                        else visibility_tables[i]
                    ),
                )
            )
        return EvaluationSeries(
            scenario=trace.scenario, ticks=ticks, params=self.params, l0=l0
        )

    def _replay_batched(
        self,
        trace: ScenarioTrace,
        samples,
        l0: float,
        visibility_tables,
    ) -> list[EvaluationTick] | None:
        """The whole-trace replay as one array program.

        Returns the replayed ticks, or ``None`` when the predictor's
        output cannot be batched (the caller then runs the per-tick
        reference loop). Every step reuses a kernel whose per-element
        arithmetic equals the per-tick path's, so the resulting series
        is bit-identical to the scalar replay:

        1. per-tick :class:`PerceivedActor` views of the recorded states
           (the same objects the scalar loop feeds :meth:`estimate`);
        2. hypothesis rollouts for all ticks via the predictor's batch
           protocol (``predict_trace``, or the stacked per-tick loop);
        3. collision gates + threat samples per (hypothesis, tick) row
           through the futures-batch assessor;
        4. one :meth:`LatencyEngine.trace_grid` + ``solve_rows`` call
           over every surviving (tick, actor, hypothesis) row (flushed
           in bounded blocks on traces long enough that holding every
           row's samples at once would go memory-bound);
        5. Equation 4 row aggregation (vectorized when the aggregator
           provides ``aggregate_rows``) and Equation 5 grouping from
           the precomputed visibility tables.
        """
        times = samples.times
        n_ticks = len(times)
        ego_states = samples.ego_states

        # 1-2: perceived views + batched hypothesis rollouts per actor.
        hypotheses_by_actor: dict[str, list[TraceHypothesis]] = {}
        for actor_id, states in samples.actor_states.items():
            actors = [
                PerceivedActor(
                    actor_id=actor_id,
                    position=state.position,
                    velocity=state.velocity(),
                    heading=state.heading,
                    speed=state.speed,
                    accel=state.accel,
                    timestamp=float(times[i]),
                )
                for i, state in enumerate(states)
            ]
            batch = getattr(self.predictor, "predict_trace", None)
            if batch is not None:
                hypotheses = batch(actors, times, self.params.horizon)
            else:
                # Probe batchability on a short prefix first: an
                # unbatchable predictor (ragged output) is detected
                # after a handful of predict calls instead of after a
                # full per-tick pass that the fallback loop would then
                # repeat wholesale.
                probe = min(4, len(actors))
                if (
                    predict_trace_via_loop(
                        self.predictor,
                        actors[:probe],
                        times[:probe],
                        self.params.horizon,
                    )
                    is None
                ):
                    return None
                hypotheses = predict_trace_via_loop(
                    self.predictor, actors, times, self.params.horizon
                )
            if hypotheses is None:
                return None
            hypotheses_by_actor[actor_id] = hypotheses

        assessor = ThreatAssessor(params=self.params, road=self.road)
        ego_motions = [
            EgoMotion.from_state(state.speed, state.accel, self.params)
            for state in ego_states
        ]
        grid = self._engine.trace_grid(ego_motions, l0)
        rel_times = np.concatenate([grid.times, grid.reactions])

        # 3: gates + threat-sample rows for every (actor, hypothesis).
        # Rows accumulate toward one solve_rows call; past the element
        # budget (~2 x 32 MB of row samples) they flush early so a long
        # trace never holds every row's samples at once (the same
        # cache-residency concern the offline evaluator blocks for).
        row_element_budget = 4_000_000
        tick_chunks: list[np.ndarray] = []
        gap_chunks: list[np.ndarray] = []
        speed_chunks: list[np.ndarray] = []
        row_slots: list[tuple[np.ndarray, np.ndarray]] = []
        pending_elements = 0

        def flush_rows() -> None:
            nonlocal pending_elements
            if not tick_chunks:
                return
            results = self._engine.solve_rows(
                grid,
                np.concatenate(tick_chunks),
                ego_motions,
                np.vstack(gap_chunks),
                np.vstack(speed_chunks),
            )
            position = 0
            for latencies, solved_ticks in row_slots:
                for tick in solved_ticks:
                    latencies[tick] = results[position].latency_or_zero()
                    position += 1
            tick_chunks.clear()
            gap_chunks.clear()
            speed_chunks.clear()
            row_slots.clear()
            pending_elements = 0

        detected = samples.detected
        per_actor: list[tuple[str, list[tuple[TraceHypothesis, np.ndarray, np.ndarray, np.ndarray]]]] = []
        for actor_id, hypotheses in hypotheses_by_actor.items():
            per_hypothesis = []
            for hypothesis in hypotheses:
                # Injected misses drop the actor from the replayed
                # world model for the tick: its hypotheses go inactive
                # there, exactly as the scalar loop's skipped upsert
                # leaves nothing to predict (rollouts are per-tick
                # pure, so masking after the fact is equivalent).
                active_mask = np.asarray(hypothesis.active, dtype=bool)
                if detected is not None:
                    active_mask = active_mask & detected[actor_id]
                active = np.flatnonzero(active_mask)
                threat_mask = np.zeros(n_ticks, dtype=bool)
                # Gated-out futures contribute the most permissive
                # latency; solved rows overwrite their slots below.
                latencies = np.full(n_ticks, self.params.l_max)
                if active.size:
                    rollout = hypothesis.rollout.take(active)
                    gates = assessor.could_collide_futures(
                        [ego_states[i] for i in active],
                        trace.ego_spec,
                        rollout,
                        self.assumed_actor_spec,
                        times[active],
                    )
                    solved_ticks = active[gates]
                    threat_mask[solved_ticks] = True
                    if solved_ticks.size:
                        gaps, speeds = assessor.sample_threat_futures(
                            [ego_states[i] for i in solved_ticks],
                            trace.ego_spec,
                            hypothesis.rollout.take(solved_ticks),
                            self.assumed_actor_spec,
                            times[solved_ticks],
                            rel_times,
                        )
                        if self.gap_margin > 0.0:
                            gaps = np.maximum(0.0, gaps - self.gap_margin)
                        tick_chunks.append(solved_ticks)
                        gap_chunks.append(gaps)
                        speed_chunks.append(speeds)
                        row_slots.append((latencies, solved_ticks))
                        pending_elements += gaps.size
                        if pending_elements >= row_element_budget:
                            flush_rows()
                per_hypothesis.append(
                    (hypothesis, active_mask, threat_mask, latencies)
                )
            per_actor.append((actor_id, per_hypothesis))

        # 4: every remaining (tick, actor, hypothesis) row through one
        # kernel call (the whole replay, unless the budget flushed).
        flush_rows()

        # 5: Equation 4 across hypotheses, then Equation 5 per tick.
        actor_latencies: list[dict[str, float | None]] = [
            {} for _ in range(n_ticks)
        ]
        for actor_id, per_hypothesis in per_actor:
            if not per_hypothesis:
                # A predictor may deem an actor irrelevant (no futures
                # at any tick): not a threat, like the scalar loop.
                continue
            latencies = np.stack(
                [values for _, _, _, values in per_hypothesis], axis=1
            )
            probabilities = np.stack(
                [h.probabilities for h, _, _, _ in per_hypothesis], axis=1
            )
            active = np.stack(
                [mask for _, mask, _, _ in per_hypothesis], axis=1
            )
            threat = np.stack(
                [mask for _, _, mask, _ in per_hypothesis], axis=1
            )
            rows = np.flatnonzero(threat.any(axis=1))
            if rows.size == 0:
                continue
            aggregated = self._aggregate_rows(
                latencies[rows], probabilities[rows], active[rows]
            )
            for row, value in zip(rows, aggregated):
                actor_latencies[int(row)][actor_id] = (
                    None if value <= UNAVOIDABLE_LATENCY else float(value)
                )

        ticks = []
        for i in range(n_ticks):
            estimates = estimate_camera_fprs(
                actor_latencies[i], visibility_tables[i], self.params
            )
            ticks.append(
                EvaluationTick(
                    time=float(times[i]),
                    camera_estimates=estimates,
                    actor_latencies=actor_latencies[i],
                    ego_speed=ego_states[i].speed,
                    ego_accel=ego_states[i].accel,
                )
            )
        return ticks

    def _aggregate_rows(
        self,
        latencies: np.ndarray,
        probabilities: np.ndarray,
        active: np.ndarray,
    ) -> np.ndarray:
        """Equation 4 over a ``(rows, hypotheses)`` batch.

        Uses the aggregator's vectorized ``aggregate_rows`` when it has
        one (the built-in aggregators do); otherwise loops the scalar
        :meth:`Aggregator.aggregate` per row — still batched everywhere
        else, just not inside the reduction.
        """
        vectorized = getattr(self.aggregator, "aggregate_rows", None)
        if vectorized is not None:
            return np.asarray(vectorized(latencies, probabilities, active))
        return np.array(
            [
                self.aggregator.aggregate(
                    [float(l) for l, a in zip(row_l, row_a) if a],
                    [float(p) for p, a in zip(row_p, row_a) if a],
                )
                for row_l, row_p, row_a in zip(latencies, probabilities, active)
            ]
        )

    def _aggregate(self, entries, solved) -> tuple[bool, float | None]:
        """``(is_threat, latency)`` — Eq 4 aggregate for one actor.

        ``entries`` pairs each predicted future's probability with its
        threat view (``None`` when the future was gated out); ``solved``
        yields the batch's :class:`LatencyResult` objects in the same
        order the threats were collected. ``is_threat`` is False when
        every future was gated out (the actor cannot collide under any
        hypothesis).
        """
        latencies: list[float] = []
        probabilities: list[float] = []
        any_threat = False
        for probability, threat in entries:
            if threat is None:
                # This future never collides: it contributes the most
                # permissive latency rather than disappearing.
                latencies.append(self.params.l_max)
                probabilities.append(probability)
                continue
            any_threat = True
            latencies.append(next(solved).latency_or_zero())
            probabilities.append(probability)

        if not any_threat:
            return False, None
        aggregated = self.aggregator.aggregate(latencies, probabilities)
        if aggregated <= UNAVOIDABLE_LATENCY:
            return True, None
        return True, aggregated
