"""Collision detection between the ego and scripted actors.

Safety in the paper is binary: "no collision between the ego and
surrounding actors". The checker reports each ego-actor pair at most
once so a continuing overlap does not flood the event list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Mapping

from repro.dynamics.state import VehicleSpec, VehicleState
from repro.geometry.boxes import boxes_overlap


@dataclass(frozen=True)
class CollisionEvent:
    """One ego-actor collision."""

    time: float
    actor_id: Hashable


class CollisionChecker:
    """Stateful per-run collision detector.

    Each actor is first tested against the bounding circles
    :func:`~repro.geometry.boxes.boxes_overlap` starts with, on the
    specs' cached circumradii; only an actor inside that circle has its
    footprint built and tested exactly.
    """

    def __init__(self, ego_spec: VehicleSpec):
        self._ego_spec = ego_spec
        self._already_hit: set[Hashable] = set()

    @property
    def collided_actors(self) -> frozenset:
        """Actors the ego has already collided with this run."""
        return frozenset(self._already_hit)

    def check(
        self,
        time: float,
        ego_state: VehicleState,
        actors: Mapping[Hashable, tuple[VehicleState, VehicleSpec]],
    ) -> list[CollisionEvent]:
        """New collisions at this instant (each actor reported once)."""
        ego_x, ego_y = ego_state.position.x, ego_state.position.y
        ego_radius = self._ego_spec.circumradius
        ego_box = None
        events: list[CollisionEvent] = []
        for actor_id, (state, spec) in actors.items():
            if actor_id in self._already_hit:
                continue
            # boxes_overlap's own first test: the centre distance against
            # the sum of the two circumradii.
            distance = math.hypot(
                ego_x - state.position.x, ego_y - state.position.y
            )
            if distance > ego_radius + spec.circumradius:
                continue
            if ego_box is None:
                ego_box = ego_state.footprint(self._ego_spec)
            if boxes_overlap(ego_box, state.footprint(spec)):
                self._already_hit.add(actor_id)
                events.append(CollisionEvent(time=time, actor_id=actor_id))
        return events
