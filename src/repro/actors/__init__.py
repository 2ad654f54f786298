"""Scripted traffic actors.

Every Table 1 scenario is a choreography of a few actors: vehicles that
cruise, follow, brake suddenly, cut in or cut out, triggered by time or
by the ego's approach. Actors move kinematically along road Frenet
coordinates; behaviours are small composable scripts.
"""

from repro.actors.behavior import (
    ActorCommand,
    AtTime,
    Behavior,
    Immediately,
    Never,
    ScenarioContext,
    Trigger,
    WhenActorGapBelow,
    WhenEgoGapBelow,
)
from repro.actors.maneuvers import (
    Cruise,
    Follow,
    PaceBeside,
    SuddenBrake,
    TriggeredLaneChange,
)
from repro.actors.vehicle import Actor

__all__ = [
    "ScenarioContext",
    "ActorCommand",
    "Behavior",
    "Trigger",
    "AtTime",
    "Immediately",
    "Never",
    "WhenEgoGapBelow",
    "WhenActorGapBelow",
    "Cruise",
    "Follow",
    "SuddenBrake",
    "TriggeredLaneChange",
    "PaceBeside",
    "Actor",
]
