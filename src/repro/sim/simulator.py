"""The closed-loop simulator.

Per 100 Hz step: perception advances (captures due camera frames and
applies frames whose processing latency elapsed), the planner decides
from the perceived world model, the ego integrates one bicycle step,
scripted actors advance their choreography, and collisions are checked.
Hooks (e.g. the Zhuyi-based online safety system) run after perception
so they can both read the world model and retune camera rates; they
observe the actors but never move them.

The actors' ground truth is read once per step: the snapshot taken
after the actors move serves that instant's collision check and settle
test, then the next step's perception, choreography context and trace
record. Each step's record goes straight into the trace's columns
(:class:`repro.sim.trace.TraceRecorder`), its camera rates read after
the hooks ran.

Stochastic perception (miss sampling, position noise) draws through the
counter-based generator of :mod:`repro.core.rng`, keyed on the frame's
capture time rather than consumed from a stateful stream — so a run is a
pure function of its inputs, two simulators built alike agree bit for
bit, and re-simulating from any recorded instant reproduces the draws
the original run made from that instant on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence, runtime_checkable

from repro.actors.behavior import ScenarioContext
from repro.actors.vehicle import Actor
from repro.dynamics.bicycle import KinematicBicycle
from repro.dynamics.state import VehicleSpec, VehicleState
from repro.errors import ConfigurationError
from repro.perception.pipeline import PerceptionSystem
from repro.planning.planner import Planner
from repro.road.track import Road
from repro.sim.collision import CollisionChecker, CollisionEvent
from repro.sim.trace import ScenarioTrace, TraceRecorder, trace_header


@runtime_checkable
class SimHook(Protocol):
    """Extension point run every step after perception and planning."""

    def on_step(self, now: float, simulator: "Simulator") -> None:
        """Observe and/or steer the running simulation."""
        ...


#: A run ends at its first collision, or once everything (ego and
#: actors below 0.05 m/s) has stood still for this many seconds.
_SETTLE_AFTER_STOP = 3.0

#: The simulation step (seconds): the 100 Hz loop of the module
#: docstring.
_DT = 0.01


@dataclass(frozen=True)
class SimulationConfig:
    """Run-level settings."""

    duration: float = 30.0

    def __post_init__(self) -> None:
        if self.duration <= _DT:
            raise ConfigurationError("duration must exceed one step")


class Simulator:
    """One closed-loop scenario run."""

    def __init__(
        self,
        scenario_name: str,
        road: Road,
        ego_initial: VehicleState,
        ego_spec: VehicleSpec,
        planner: Planner,
        perception: PerceptionSystem,
        actors: Sequence[Actor],
        config: SimulationConfig | None = None,
        hooks: Sequence[SimHook] = (),
        seed: int | None = None,
    ):
        self.scenario_name = scenario_name
        self.road = road
        self.ego_state = ego_initial
        self.ego_spec = ego_spec
        self.planner = planner
        self.perception = perception
        self.actors = list(actors)
        self.config = config if config is not None else SimulationConfig()
        self.hooks = list(hooks)
        self.seed = seed
        self.time = 0.0
        self._integrator = KinematicBicycle(ego_spec)
        self._collision_checker = CollisionChecker(ego_spec)
        self._collisions: list[CollisionEvent] = []
        self._recorder = TraceRecorder()
        self._last_mode = "cruise"
        self._initial_fprs = perception.fprs()

        ids = [actor.actor_id for actor in self.actors]
        if len(set(ids)) != len(ids):
            raise ConfigurationError(f"duplicate actor ids: {ids}")

    # ------------------------------------------------------------------
    # state snapshots
    # ------------------------------------------------------------------

    def actor_states(self) -> dict[str, VehicleState]:
        """Ground-truth states of all actors right now."""
        return {actor.actor_id: actor.state for actor in self.actors}

    def actor_map(
        self, states: Mapping[str, VehicleState] | None = None
    ) -> dict[str, tuple[VehicleState, VehicleSpec]]:
        """(state, spec) pairs keyed by actor id — the perception input.

        ``states`` reuses an :meth:`actor_states` snapshot of this
        instant instead of reading every actor again.
        """
        if states is None:
            states = self.actor_states()
        return {
            actor.actor_id: (states[actor.actor_id], actor.spec)
            for actor in self.actors
        }

    @property
    def collisions(self) -> list[CollisionEvent]:
        """Collisions recorded so far."""
        return list(self._collisions)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def run(self) -> ScenarioTrace:
        """Run to completion and return the recorded trace."""
        config = self.config
        steps_total = int(round(config.duration / _DT))
        stopped_since: float | None = None

        states = self.actor_states()
        actor_map = self.actor_map(states)
        for _ in range(steps_total):
            now = self.time

            self.perception.step(now, self.ego_state, actor_map)
            plan = self.planner.plan(
                now, self.ego_state, self.perception.world_model
            )
            self._last_mode = plan.mode.value

            for hook in self.hooks:
                hook.on_step(now, self)

            self._record(now, states)

            # Integrate the ego and advance the choreography.
            context = ScenarioContext(
                road=self.road, ego_state=self.ego_state, actor_states=states
            )
            self.ego_state = self._integrator.step(
                self.ego_state, plan.accel, plan.steer, _DT
            )
            for actor in self.actors:
                actor.step(now, _DT, context)
            self.time = now + _DT

            # The step's one snapshot of the moved actors.
            states = self.actor_states()
            actor_map = self.actor_map(states)
            events = self._collision_checker.check(
                self.time, self.ego_state, actor_map
            )
            self._collisions.extend(events)
            if events:
                self._record(self.time, states)
                break

            # End early once everything has settled to a stop.
            moving = self.ego_state.speed > 0.05 or any(
                state.speed > 0.05 for state in states.values()
            )
            if moving:
                stopped_since = None
            elif stopped_since is None:
                stopped_since = self.time
            elif self.time - stopped_since >= _SETTLE_AFTER_STOP:
                self._record(self.time, states)
                break

        recorder = self._recorder
        if not recorder or recorder.last_time < self.time - 1e-9:
            self._record(self.time, states)

        header = trace_header(
            scenario=self.scenario_name,
            dt=_DT,
            collisions=self._collisions,
            nominal_fpr=self._nominal_fpr(),
            seed=self.seed,
            ego_spec=self.ego_spec,
            actor_specs={actor.actor_id: actor.spec for actor in self.actors},
        )
        return ScenarioTrace.from_columns(header, *recorder.columns())

    def _record(self, now: float, states: Mapping[str, VehicleState]) -> None:
        self._recorder.record(
            now, self.ego_state, states, self._last_mode,
            self.perception.rates,
        )

    def _nominal_fpr(self) -> float | None:
        """The run's fixed FPR setting, or ``None`` when per-camera."""
        rates = set(self._initial_fprs.values())
        if len(rates) == 1:
            return rates.pop()
        return None
