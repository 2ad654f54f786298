"""Post-deployment online estimation (Section 3.2).

"The ego and actors current states are obtained from the perceived world
model, and future states are obtained from predicted trajectories."

Per call the estimator asks the predictor for a probabilistic set of
futures per confirmed actor, solves the tolerable latency against each
future, aggregates with Equation 4 (percentile by default) and produces
Equation 5 per-camera estimates grouped by FOV at the perceived actor
positions. A live :meth:`OnlineEstimator.estimate` and the
post-deployment :meth:`OnlineEstimator.replay` run one program: on a
vectorized backend the live tick is the one-tick case of the replay's
row pipeline, and the scalar per-tick loop is the reference both are
tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Hashable, Mapping, Sequence

import numpy as np

from repro.core.aggregation import Aggregator, PercentileAggregator
from repro.core.ego_profile import EgoMotion
from repro.core.engine import LatencyEngine
from repro.core.evaluator import (
    EvaluationSeries,
    EvaluationTick,
    TraceSamples,
    presample_trace,
    solve_row_sources,
)
from repro.core.latency import BACKENDS, UNAVOIDABLE_LATENCY, LatencySearch
from repro.core.parameters import ZhuyiParams
from repro.core.threat import ThreatAssessor
from repro.dynamics.state import VehicleSpec, VehicleState
from repro.errors import EstimationError
from repro.perception.noise import PerceptionNoise
from repro.perception.sensor import default_rig
from repro.perception.world_model import PerceivedActor, WorldModel
from repro.prediction.base import Predictor
from repro.road.track import Road
from repro.sim.trace import ScenarioTrace


#: The physical spec attributed to every perceived actor: the world
#: model carries no extent information.
_PERCEIVED_SPEC = VehicleSpec()


def _perceived(
    actor_id: Hashable, state: VehicleState, now: float
) -> PerceivedActor:
    """A ground-truth state as a perfect stack's world-model entry."""
    return PerceivedActor(
        actor_id=actor_id,
        position=state.position,
        velocity=state.velocity(),
        heading=state.heading,
        speed=state.speed,
        accel=state.accel,
        timestamp=now,
    )


@dataclass
class OnlineEstimator:
    """The Zhuyi block of Figure 3: world model + predictions in, FPRs out.

    Equation 5 groups actors by the FOVs of the paper's five cameras
    (:func:`~repro.perception.sensor.default_rig`), the rig the
    simulator perceives with.

    Attributes:
        params: the Zhuyi constants.
        predictor: trajectory predictor supplying the set ``T`` of Eq 4.
        road: road geometry for threat gating.
        aggregator: Equation 4 reduction (paper default: 99th percentile).
        backend: ``"batched"`` (default) and ``"crosstrace"`` run one
            row program over a tick axis: :meth:`replay` feeds it a
            whole trace and :meth:`estimate` one tick, every gated
            (tick, actor, hypothesis) row solving through the offline
            block's row solver (one estimator never sees more than one
            trace, so the two names run the same program). They need a
            predictor with ``predict_trace`` and an aggregator with
            ``aggregate_rows``. ``"scalar"`` runs the per-tick
            reference loop. Bit-identical estimates.
        noise: optional stochastic perception injected into
            :meth:`replay` (undetected ticks drop the actor from the
            replayed world model; position noise perturbs the perceived
            states the predictor sees). Counter-keyed draws keep the
            scalar and batched replays bit-identical under noise, from
            any resume tick. Live :meth:`estimate` calls read a real
            world model and never consult this field.

    Raises:
        EstimationError: on an unknown backend, or a vectorized backend
            whose predictor has no ``predict_trace`` or whose aggregator
            has no ``aggregate_rows`` (``backend="scalar"`` runs either).
    """

    params: ZhuyiParams
    predictor: Predictor
    road: Road
    aggregator: Aggregator = field(default_factory=PercentileAggregator)
    backend: str = "batched"
    noise: PerceptionNoise | None = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise EstimationError(
                f"unknown backend {self.backend!r}; choose from {BACKENDS}"
            )
        self._search = LatencySearch(params=self.params)
        self._rig = default_rig()
        self._engine = None
        if self.backend != "scalar":
            for owner, method in (
                (self.predictor, "predict_trace"),
                (self.aggregator, "aggregate_rows"),
            ):
                if not hasattr(owner, method):
                    raise EstimationError(
                        f"backend {self.backend!r} estimates through "
                        f"{method}, which {type(owner).__name__} lacks; "
                        'use backend="scalar"'
                    )
            self._engine = LatencyEngine(params=self.params)

    def estimate(
        self,
        now: float,
        ego_state: VehicleState,
        ego_spec: VehicleSpec,
        world_model: WorldModel,
        l0: float,
    ) -> EvaluationTick:
        """One online estimation tick.

        On a vectorized backend this is the one-tick case of
        :meth:`replay`'s row program, fed the world model at ``now``;
        ``"scalar"`` runs the per-actor, per-future reference loop.

        Args:
            now: current time (seconds).
            ego_state: the ego's (localized) state.
            ego_spec: the ego's physical spec.
            world_model: confirmed perceived actors.
            l0: the perception stack's current processing latency (s).

        Returns:
            The same tick structure the offline evaluator produces, so
            downstream consumers (safety check, prioritization, figures)
            are agnostic to where estimates came from.
        """
        if self._engine is not None:
            return self._estimate_ticks(
                "live",
                np.array([now]),
                [ego_state],
                ego_spec,
                {actor.actor_id: [actor] for actor in world_model},
                {
                    actor.actor_id: (
                        np.array([actor.position.x]),
                        np.array([actor.position.y]),
                    )
                    for actor in world_model
                },
                None,
                l0,
            ).ticks[0]

        assessor = ThreatAssessor(params=self.params, road=self.road)
        ego_motion = EgoMotion.from_state(
            ego_state.speed, ego_state.accel, self.params
        )
        actor_positions = {}
        actor_latencies: dict[str, float | None] = {}
        for perceived in world_model:
            actor_positions[perceived.actor_id] = perceived.position
            entries: list[tuple[float, object | None]] = []
            for prediction in self.predictor.predict(
                perceived, now, self.params.horizon
            ):
                threat = assessor.assess(
                    ego_state,
                    ego_spec,
                    prediction.trajectory,
                    _PERCEIVED_SPEC,
                    t0=now,
                )
                entries.append((prediction.probability, threat))
            is_threat, latency = self._aggregate(entries, ego_motion, l0)
            if is_threat:
                actor_latencies[perceived.actor_id] = latency

        return EvaluationTick.at(
            now,
            ego_state,
            actor_latencies,
            self._rig.visible_actors(ego_state, actor_positions),
            self.params,
        )

    def replay(
        self,
        trace: ScenarioTrace,
        l0: float | None = None,
        period: float = 0.1,
        samples: TraceSamples | None = None,
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

        With ``backend="batched"`` (or ``"crosstrace"``) the replay is
        the many-tick case of the program a live :meth:`estimate` runs
        on one tick: ``predict_trace`` rolls each hypothesis out over
        all ticks at once, ``ThreatAssessor.could_collide_futures``
        gates the futures, and
        :func:`repro.core.evaluator.solve_row_sources` samples
        (``sample_threat_futures``) and solves every gated (tick, actor,
        hypothesis) row in bounded windows over the master prefix they
        read. Equation 4 runs through the aggregator's
        ``aggregate_rows`` into a (tick, actor) latency table, and
        Equation 5 through :meth:`EvaluationSeries.rollup` on that
        table and one ``CameraRig.visibility_trace`` pass.
        ``"scalar"`` replays the per-tick reference loop; the two are
        bit-identical.

        Args:
            trace: the recorded closed-loop run.
            l0: processing latency entering the model; defaults to one
                frame period of the trace's recorded FPR setting.
            period: estimation cadence along the trace (seconds).
            samples: pre-built :func:`presample_trace` output to reuse
                (the cross-variant cache); its stride and noise setting
                must match ``period`` and the estimator's. Omitted, the
                trace is sampled here.

        Returns:
            The replayed tick series (same structure as the offline
            evaluator's output).

        Raises:
            EstimationError: on ``samples`` taken at another stride or
                noise.
        """
        if l0 is None:
            l0 = trace.default_l0()
        # The offline evaluator's presampler supplies the tick grid and
        # the per-tick states/positions (noise-injected when the
        # estimator carries a noise model), so replay ticks land on
        # exactly the grid an OfflineEvaluator with stride=period
        # evaluates — and draw the exact same injected perception.
        if samples is None:
            samples = presample_trace(trace, period, noise=self.noise)
        else:
            samples.check(period, self.noise)
        times = samples.times
        detected = samples.detected
        if self._engine is not None:
            return self._estimate_ticks(
                trace.scenario,
                times,
                samples.ego_states,
                trace.ego_spec,
                {
                    actor_id: [
                        _perceived(actor_id, state, float(now))
                        for state, now in zip(states, times)
                    ]
                    for actor_id, states in samples.actor_states.items()
                },
                samples.actor_positions,
                detected,
                l0,
            )
        ticks = []
        for i, now in enumerate(times.tolist()):
            world = WorldModel()
            for actor_id, states in samples.actor_states.items():
                # An injected miss: the actor never reaches the
                # replayed world model this tick.
                if detected is None or detected[actor_id][i]:
                    world.upsert(_perceived(actor_id, states[i], now))
            ticks.append(
                self.estimate(
                    now=now,
                    ego_state=samples.ego_states[i],
                    ego_spec=trace.ego_spec,
                    world_model=world,
                    l0=l0,
                )
            )
        return EvaluationSeries(
            scenario=trace.scenario,
            ticks=ticks,
            params=self.params,
            l0=l0,
            actor_ids=samples.actor_states,
        )

    def _estimate_ticks(
        self,
        scenario: str,
        times: np.ndarray,
        ego_states: Sequence[VehicleState],
        ego_spec: VehicleSpec,
        actors: Mapping[Hashable, Sequence[PerceivedActor]],
        positions: Mapping[Hashable, tuple[np.ndarray, np.ndarray]],
        detected: Mapping[Hashable, np.ndarray] | None,
        l0: float,
    ) -> EvaluationSeries:
        """The vectorized estimate over a tick axis, one tick per time.

        ``actors`` holds each actor's perceived view at every tick and
        ``positions`` its ``(xs, ys)`` arrays over the same ticks, both
        keyed alike and in one order (the series' actor axis);
        ``detected`` optionally drops an actor from a tick's world
        model. Bit-identical to the scalar :meth:`estimate` at each
        tick: every kernel does its per-element arithmetic.
        """
        n_ticks = len(times)
        assessor = ThreatAssessor(params=self.params, road=self.road)
        ego_rows = assessor.ego_path_rows(ego_states)
        motions = [
            EgoMotion.from_state(state.speed, state.accel, self.params)
            for state in ego_states
        ]
        grid = self._engine.trace_grid(motions, l0)

        def sample(hypothesis, ticks, layout):
            """One (actor, hypothesis) source's rows at ``ticks``."""
            return assessor.sample_threat_futures(
                [ego_states[i] for i in ticks],
                ego_spec,
                hypothesis.rollout.take(ticks),
                _PERCEIVED_SPEC,
                times[ticks],
                layout.rel_times,
                ego_rows=ego_rows.take(ticks),
                layout=layout,
            )

        # Per actor, the ticks any hypothesis is gated at; per (actor,
        # hypothesis), its per-tick latencies, probabilities and active
        # mask. Solved rows fill the latencies in; gated-out futures
        # keep the most permissive latency.
        per_actor: list[tuple[np.ndarray, list[tuple]]] = []
        sources = []
        slots: list[np.ndarray] = []
        for actor_id, views in actors.items():
            threat = np.zeros(n_ticks, dtype=bool)
            per_hypothesis = []
            for hypothesis in self.predictor.predict_trace(
                views, times, self.params.horizon
            ):
                # A tick whose world model lacks the actor has nothing
                # to predict: its hypotheses go inactive there
                # (rollouts are per-tick pure, so masking after the
                # fact is equivalent).
                active_mask = np.asarray(hypothesis.active, dtype=bool)
                if detected is not None:
                    active_mask = active_mask & detected[actor_id]
                active = np.flatnonzero(active_mask)
                latencies = np.full(n_ticks, self.params.l_max)
                if active.size:
                    gates = assessor.could_collide_futures(
                        [ego_states[i] for i in active],
                        ego_spec,
                        hypothesis.rollout.take(active),
                        _PERCEIVED_SPEC,
                        times[active],
                        ego_rows=ego_rows.take(active),
                    )
                    gated = active[gates]
                    threat[gated] = True
                    if gated.size:
                        sources.append((gated, partial(sample, hypothesis)))
                        slots.append(latencies)
                per_hypothesis.append(
                    (latencies, hypothesis.probabilities, active_mask)
                )
            per_actor.append((threat, per_hypothesis))

        solved_rows = solve_row_sources(
            self._engine,
            grid,
            motions,
            sources,
            len(sources),
            np.array([self.params.c1]),
            np.array([self.params.c2]),
        )
        for source, ticks, (latency,) in solved_rows:
            # latency_or_zero: an unavoidable row joins Eq 4 at zero.
            slots[source][ticks] = np.where(
                np.isnan(latency), UNAVOIDABLE_LATENCY, latency
            )

        # Equation 4 across hypotheses into the (tick, actor) table
        # (inf: no threat, NaN: unavoidable), then Equation 5.
        table = np.full((n_ticks, len(per_actor)), np.inf)
        for a, (threat, per_hypothesis) in enumerate(per_actor):
            # Ticks where every future is gated out — or where the
            # predictor emitted none — carry no threat, as in the
            # scalar loop.
            rows = np.flatnonzero(threat)
            if rows.size == 0:
                continue
            latencies, probabilities, active = (
                np.stack(column, axis=1)[rows]
                for column in zip(*per_hypothesis)
            )
            aggregated = self.aggregator.aggregate_rows(
                latencies, probabilities, active
            )
            table[rows, a] = np.where(
                aggregated <= UNAVOIDABLE_LATENCY, np.nan, aggregated
            )
        return EvaluationSeries.rollup(
            scenario,
            self.params,
            l0,
            times,
            ego_states,
            list(actors),
            table,
            self._rig.visibility_trace(ego_states, positions, detected),
        )

    def _aggregate(
        self, entries, ego_motion: EgoMotion, l0: float
    ) -> tuple[bool, float | None]:
        """``(is_threat, latency)`` — the scalar Eq 4 aggregate of one actor.

        ``entries`` pairs each predicted future's probability with its
        threat view (``None`` when the future was gated out), each
        solved by the reference search. ``is_threat`` is False when
        every future was gated out (the actor cannot collide under any
        hypothesis).
        """
        latencies: list[float] = []
        probabilities: list[float] = []
        any_threat = False
        for probability, threat in entries:
            probabilities.append(probability)
            if threat is None:
                # This future never collides: it contributes the most
                # permissive latency rather than disappearing.
                latencies.append(self.params.l_max)
                continue
            any_threat = True
            latencies.append(
                self._search.tolerable_latency(
                    ego_motion, threat, l0
                ).latency_or_zero()
            )

        if not any_threat:
            return False, None
        aggregated = self.aggregator.aggregate(latencies, probabilities)
        if aggregated <= UNAVOIDABLE_LATENCY:
            return True, None
        return True, aggregated
