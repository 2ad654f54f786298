"""Behaviour and trigger interfaces for scripted actors.

A behaviour sees the whole ground-truth scene (actors are scripted
choreography, not perception consumers) and returns a longitudinal
acceleration plus, optionally, a lane-change request. Triggers are small
predicates that fire once and stay fired — "when the ego is 40 m behind
me", "at t = 3 s" — used to time manoeuvres.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Hashable, Mapping, Protocol, runtime_checkable

from repro.dynamics.state import VehicleState
from repro.errors import ConfigurationError
from repro.road.track import Road

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.actors.vehicle import Actor


@dataclass(frozen=True)
class ScenarioContext:
    """Ground-truth view handed to behaviours every step."""

    road: Road
    ego_state: VehicleState
    actor_states: Mapping[Hashable, VehicleState]

    def ego_station(self) -> float:
        """Ego station along the road."""
        return self.road.to_frenet(self.ego_state.position).s


@dataclass(frozen=True)
class ActorCommand:
    """A behaviour's decision for one step.

    Attributes:
        accel: longitudinal acceleration along the lane (m/s^2).
        change_to_lane: lane index to start changing into, or ``None``.
            Ignored while a lane change is already in progress.
        lane_change_duration: manoeuvre time if a change starts (s).
    """

    accel: float = 0.0
    change_to_lane: int | None = None
    lane_change_duration: float = 3.0


@runtime_checkable
class Behavior(Protocol):
    """Per-step decision function of a scripted actor."""

    def update(
        self, now: float, actor: "Actor", context: ScenarioContext
    ) -> ActorCommand:
        """The actor's command for this step."""
        ...


class Trigger(Protocol):
    """A latching condition used to time manoeuvres."""

    def fired(
        self, now: float, actor: "Actor", context: ScenarioContext
    ) -> bool:
        """True once the condition has been met (stays true after)."""
        ...


@dataclass
class _LatchingTrigger:
    """Base: evaluates a condition until it first fires, then latches."""

    _latched: bool = field(default=False, init=False)

    def fired(self, now: float, actor: "Actor", context: ScenarioContext) -> bool:
        if not self._latched and self._condition(now, actor, context):
            self._latched = True
        return self._latched

    def _condition(
        self, now: float, actor: "Actor", context: ScenarioContext
    ) -> bool:
        raise NotImplementedError


@dataclass
class Immediately(_LatchingTrigger):
    """Fires on the first evaluation."""

    def _condition(self, now: float, actor, context) -> bool:
        return True


@dataclass
class Never(_LatchingTrigger):
    """Never fires."""

    def _condition(self, now: float, actor, context) -> bool:
        return False


@dataclass
class AtTime(_LatchingTrigger):
    """Fires at a fixed simulation time."""

    time: float = 0.0

    def _condition(self, now: float, actor, context) -> bool:
        return now >= self.time


@dataclass
class WhenEgoGapBelow(_LatchingTrigger):
    """Fires when the ego's along-road gap to this actor drops below a bound.

    The gap is ``actor station - ego station`` (positive while the actor
    is ahead); cut-in and cut-out scripts key off the ego's approach.
    """

    gap: float = 30.0

    def __post_init__(self) -> None:
        if self.gap <= 0.0:
            raise ConfigurationError(f"trigger gap must be positive: {self.gap}")

    def _condition(self, now: float, actor, context) -> bool:
        ego_s = context.ego_station()
        return (actor.station - ego_s) <= self.gap


@dataclass
class WhenActorGapBelow(_LatchingTrigger):
    """Fires when the along-road gap to another actor drops below a bound.

    The gap is ``target station - own station``. The Cut-out lead uses
    this to bail out of its lane before reaching the static obstacle.
    """

    target_id: Hashable = ""
    gap: float = 30.0

    def __post_init__(self) -> None:
        if self.gap <= 0.0:
            raise ConfigurationError(f"trigger gap must be positive: {self.gap}")

    def _condition(self, now: float, actor, context) -> bool:
        target = context.actor_states.get(self.target_id)
        if target is None:
            return False
        target_s = context.road.to_frenet(target.position).s
        return (target_s - actor.station) <= self.gap
