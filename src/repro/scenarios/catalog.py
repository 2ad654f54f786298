"""The nine Table 1 scenarios.

Every scenario follows the paper's prose (Section 4.1). Geometry numbers
(gaps, trigger distances) are this reproduction's tuning — the paper does
not publish them — chosen so the *shape* of Table 1 holds: the cut-out
scenarios are the hardest (highest MRF), the activity scenarios are
benign, and everything is survivable at 30 FPR.

Note: the prose for "Front & right activity 3" says the actor cuts in
from the *right-most* lane while the table flags Left activity; we follow
the prose (see DESIGN.md, "known paper ambiguities").
"""

# reprolint: disable-file=DET001 -- scenario-choreography legacy: actor
# builders consume the per-scenario jitter generator (seeded in
# BuiltScenario.build_actors) in a fixed declaration order pinned by
# the recorded goldens; see scenarios/base.py's pragma.

from __future__ import annotations

import re

import numpy as np

from repro.actors.behavior import AtTime, WhenActorGapBelow, WhenEgoGapBelow
from repro.actors.maneuvers import (
    Cruise,
    Follow,
    PaceBeside,
    SuddenBrake,
    TriggeredLaneChange,
)
from repro.actors.vehicle import Actor
from repro.errors import ConfigurationError
from repro.road.track import Road, three_lane_curved_road, three_lane_straight_road
from repro.scenarios.base import BuiltScenario, ScenarioSpec, jittered
from repro.units import mph_to_mps

#: Ego start station on the straight road (m).
_EGO_START = 60.0


def _straight_road() -> Road:
    return three_lane_straight_road(length=2000.0)


def _curved_road() -> Road:
    return three_lane_curved_road(
        entry_length=150.0, radius=350.0, arc_length=1400.0, turn_left=False
    )


# ----------------------------------------------------------------------
# cut-out family
# ----------------------------------------------------------------------


def _cut_out_actors(
    road: Road,
    rng: np.random.Generator,
    ego_speed_mph: float,
    lead_gap: float | None = None,
    bail_out_gap: float | None = None,
    duration: float = 1.8,
    cruise_before: float = 2.5,
) -> list[Actor]:
    """Lead cuts out of the ego's lane, revealing a static obstacle.

    Two more actors pace the ego on both adjacent lanes, so hard braking
    is the ego's only option. The bail-out gap is chosen so the obstacle
    is revealed near-critically: at 40 mph the scenario is survivable
    only with a fast perception reaction (the paper's hardest MRF).
    The gap/maneuver keywords default to the Table 1 tuning; the fuzz
    families override them per genome (same draw order either way, so
    defaults reproduce the original choreography bit-exactly).
    """
    speed = mph_to_mps(ego_speed_mph)
    if lead_gap is None:
        lead_gap = 0.3 * speed + 20.0
    # Slightly tighter bail-out at low speed keeps the 20 mph variant's
    # demand above its MRF even in gently-driven high-FPR traces.
    if bail_out_gap is None:
        bail_out_gap = 22.0 if speed < 12.0 else 26.0
    lead_gap = jittered(rng, lead_gap, 0.05)
    bail_out_gap = jittered(rng, bail_out_gap, 0.05)
    obstacle_gap = lead_gap + bail_out_gap + speed * cruise_before
    lead = Actor(
        actor_id="lead",
        road=road,
        behavior=TriggeredLaneChange(
            trigger=WhenActorGapBelow(target_id="obstacle", gap=bail_out_gap),
            target_lane=0,
            duration=jittered(rng, duration, 0.08),
            then=Cruise(target_speed=speed),
        ),
        lane=1,
        station=_EGO_START + lead_gap,
        speed=speed,
    )
    obstacle = Actor(
        actor_id="obstacle",
        road=road,
        behavior=Cruise(target_speed=0.0),
        lane=1,
        station=_EGO_START + obstacle_gap,
        speed=0.0,
    )
    left_blocker = Actor(
        actor_id="left_blocker",
        road=road,
        behavior=Cruise(target_speed=speed),
        lane=2,
        station=_EGO_START + jittered(rng, 2.0, 0.3),
        speed=speed,
    )
    right_blocker = Actor(
        actor_id="right_blocker",
        road=road,
        behavior=Cruise(target_speed=speed),
        lane=0,
        station=_EGO_START - jittered(rng, 3.0, 0.3),
        speed=speed,
    )
    return [lead, obstacle, left_blocker, right_blocker]


# ----------------------------------------------------------------------
# cut-in family
# ----------------------------------------------------------------------


def _cut_in_actors(
    road: Road,
    rng: np.random.Generator,
    ego_speed_mph: float,
    actor_speed_mph: float,
    trigger_gap: float,
    start_gap: float,
    duration: float,
    with_left_blocker: bool,
    blocker_station_offset: float = -8.0,
    from_lane: int = 0,
    ego_lane: int = 1,
    ego_station: float = _EGO_START,
) -> list[Actor]:
    """An actor cuts into the ego's lane from an adjacent lane."""
    actor_speed = mph_to_mps(actor_speed_mph)
    ego_speed = mph_to_mps(ego_speed_mph)
    cutter = Actor(
        actor_id="cutter",
        road=road,
        behavior=TriggeredLaneChange(
            trigger=WhenEgoGapBelow(gap=jittered(rng, trigger_gap, 0.08)),
            target_lane=ego_lane,
            duration=jittered(rng, duration, 0.12),
            cruise_speed=actor_speed,
        ),
        lane=from_lane,
        station=ego_station + jittered(rng, start_gap, 0.08),
        speed=actor_speed,
    )
    actors = [cutter]
    if with_left_blocker:
        actors.append(
            Actor(
                actor_id="left_blocker",
                road=road,
                behavior=Cruise(target_speed=ego_speed),
                lane=2,
                station=ego_station + blocker_station_offset,
                speed=ego_speed,
            )
        )
    return actors


# ----------------------------------------------------------------------
# the catalog
# ----------------------------------------------------------------------


SCENARIOS: dict[str, ScenarioSpec] = {}


def _register(spec: ScenarioSpec) -> None:
    if spec.name in SCENARIOS:
        raise ConfigurationError(f"duplicate scenario name {spec.name!r}")
    SCENARIOS[spec.name] = spec


_register(
    ScenarioSpec(
        name="cut_out",
        description=(
            "Front actor cuts out of the ego's lane revealing a static "
            "obstacle; adjacent lanes blocked."
        ),
        ego_speed_mph=20.0,
        ego_lane=1,
        ego_station=_EGO_START,
        activity={"front": True, "right": True, "left": True},
        paper_mrf="2",
        build_road=_straight_road,
        build_actors=lambda road, rng: _cut_out_actors(road, rng, 20.0),
        duration=35.0,
    )
)

_register(
    ScenarioSpec(
        name="cut_out_fast",
        description="Cut-out with the ego traveling at a higher speed.",
        ego_speed_mph=40.0,
        ego_lane=1,
        ego_station=_EGO_START,
        activity={"front": True, "right": True, "left": True},
        paper_mrf="6",
        build_road=_straight_road,
        build_actors=lambda road, rng: _cut_out_actors(road, rng, 40.0),
        duration=35.0,
    )
)

_register(
    ScenarioSpec(
        name="cut_in",
        description="An actor cuts in front of the ego at a safe distance.",
        ego_speed_mph=70.0,
        ego_lane=1,
        ego_station=_EGO_START,
        activity={"front": True, "right": False, "left": False},
        paper_mrf="<1",
        build_road=_straight_road,
        build_actors=lambda road, rng: _cut_in_actors(
            road,
            rng,
            ego_speed_mph=70.0,
            actor_speed_mph=55.0,
            trigger_gap=55.0,
            start_gap=75.0,
            duration=3.0,
            with_left_blocker=False,
        ),
        duration=40.0,
    )
)

_register(
    ScenarioSpec(
        name="challenging_cut_in",
        description=(
            "An actor cuts in much closer to the ego; a left-lane actor "
            "leaves braking as the only option."
        ),
        ego_speed_mph=60.0,
        ego_lane=1,
        ego_station=_EGO_START,
        activity={"front": True, "right": True, "left": False},
        paper_mrf="3",
        build_road=_straight_road,
        build_actors=lambda road, rng: _cut_in_actors(
            road,
            rng,
            ego_speed_mph=60.0,
            actor_speed_mph=40.0,
            trigger_gap=26.0,
            start_gap=45.0,
            duration=2.2,
            with_left_blocker=True,
            blocker_station_offset=-9.0,
        ),
        duration=35.0,
    )
)

_register(
    ScenarioSpec(
        name="challenging_cut_in_curved",
        description="The challenging cut-in staged on a curved road.",
        ego_speed_mph=40.0,
        ego_lane=1,
        ego_station=40.0,
        activity={"front": True, "right": True, "left": True},
        paper_mrf="3",
        build_road=_curved_road,
        build_actors=lambda road, rng: _cut_in_actors(
            road,
            rng,
            ego_speed_mph=40.0,
            actor_speed_mph=26.0,
            trigger_gap=20.0,
            start_gap=38.0,
            duration=2.2,
            with_left_blocker=True,
            blocker_station_offset=-2.0,
            ego_station=40.0,
        ),
        duration=40.0,
    )
)


def _vehicle_following_actors(
    road: Road,
    rng: np.random.Generator,
    ego_speed_mph: float = 70.0,
    lead_gap: float = 50.0,
    brake_time: float = 4.0,
    decel: float = 3.0,
) -> list[Actor]:
    speed = mph_to_mps(ego_speed_mph)
    return [
        Actor(
            actor_id="lead",
            road=road,
            behavior=SuddenBrake(
                trigger=AtTime(time=jittered(rng, brake_time, 0.15)),
                decel=jittered(rng, decel, 0.1),
                cruise_speed=speed,
            ),
            lane=1,
            station=_EGO_START + jittered(rng, lead_gap, 0.04),
            speed=speed,
        )
    ]


_register(
    ScenarioSpec(
        name="vehicle_following",
        description=(
            "The ego follows a lead at 50 m on a highway; the lead "
            "suddenly brakes to a stop."
        ),
        ego_speed_mph=70.0,
        ego_lane=1,
        ego_station=_EGO_START,
        activity={"front": True, "right": False, "left": False},
        paper_mrf="<1",
        build_road=_straight_road,
        build_actors=_vehicle_following_actors,
        duration=35.0,
    )
)


def _front_right_1_actors(road: Road, rng: np.random.Generator) -> list[Actor]:
    """Ego in the left lane; benign lane-change traffic around it."""
    speed = mph_to_mps(40.0)
    mover = Actor(
        actor_id="mover",
        road=road,
        behavior=TriggeredLaneChange(
            trigger=AtTime(time=jittered(rng, 3.0, 0.2)),
            target_lane=1,
            duration=jittered(rng, 3.0, 0.15),
            cruise_speed=speed,
        ),
        lane=0,
        station=_EGO_START + jittered(rng, 45.0, 0.1),
        speed=speed,
    )
    overtaker = Actor(
        actor_id="overtaker",
        road=road,
        behavior=TriggeredLaneChange(
            trigger=AtTime(time=jittered(rng, 4.0, 0.2)),
            target_lane=1,
            duration=jittered(rng, 3.0, 0.15),
            cruise_speed=mph_to_mps(45.0),
        ),
        lane=2,
        station=_EGO_START - jittered(rng, 32.0, 0.1),
        speed=mph_to_mps(45.0),
    )
    return [mover, overtaker]


_register(
    ScenarioSpec(
        name="front_right_activity_1",
        description=(
            "Ego in the left lane; an actor moves from the rightmost lane "
            "to the middle, another moves from behind the ego to the right."
        ),
        ego_speed_mph=40.0,
        ego_lane=2,
        ego_station=_EGO_START,
        activity={"front": True, "right": True, "left": False},
        paper_mrf="<1",
        build_road=_straight_road,
        build_actors=_front_right_1_actors,
        duration=30.0,
    )
)


def _front_right_2_actors(road: Road, rng: np.random.Generator) -> list[Actor]:
    """Front actor cuts out right then paces the ego; a follower behind."""
    speed = mph_to_mps(40.0)
    pacer = Actor(
        actor_id="pacer",
        road=road,
        behavior=TriggeredLaneChange(
            trigger=AtTime(time=jittered(rng, 2.5, 0.2)),
            target_lane=0,
            duration=jittered(rng, 2.8, 0.15),
            cruise_speed=speed,
            then=PaceBeside(station_offset=jittered(rng, 1.0, 0.5)),
        ),
        lane=1,
        station=_EGO_START + jittered(rng, 32.0, 0.1),
        speed=speed,
    )
    follower = Actor(
        actor_id="follower",
        road=road,
        behavior=Follow(lead_id=None),
        lane=1,
        station=_EGO_START - jittered(rng, 35.0, 0.1),
        speed=speed,
    )
    return [pacer, follower]


_register(
    ScenarioSpec(
        name="front_right_activity_2",
        description=(
            "Ego in the middle lane; the front actor cuts out to the "
            "rightmost lane and paces the ego side by side; another actor "
            "follows the ego."
        ),
        ego_speed_mph=40.0,
        ego_lane=1,
        ego_station=_EGO_START,
        activity={"front": True, "right": True, "left": False},
        paper_mrf="<1",
        build_road=_straight_road,
        build_actors=_front_right_2_actors,
        duration=30.0,
    )
)


_register(
    ScenarioSpec(
        name="front_right_activity_3",
        description=(
            "Ego in the middle lane; an actor from the rightmost lane cuts "
            "into the ego's lane ahead of it."
        ),
        ego_speed_mph=60.0,
        ego_lane=1,
        ego_station=_EGO_START,
        activity={"front": True, "right": True, "left": False},
        paper_mrf="<1",
        build_road=_straight_road,
        build_actors=lambda road, rng: _cut_in_actors(
            road,
            rng,
            ego_speed_mph=60.0,
            actor_speed_mph=45.0,
            trigger_gap=42.0,
            start_gap=60.0,
            duration=2.6,
            with_left_blocker=False,
        ),
        duration=35.0,
    )
)


#: Catalog keys in Table 1 order (the nine paper scenarios; expansions
#: registered later by :func:`speed_sweep` are not re-listed here).
SCENARIO_NAMES: tuple[str, ...] = tuple(SCENARIOS)

#: Ego speeds (mph) the default speed sweep derives variants at.
DEFAULT_SWEEP_SPEEDS: tuple[float, ...] = (20.0, 30.0, 40.0, 50.0, 60.0, 70.0)


def _cut_in_variant_actors(
    road: Road, rng: np.random.Generator, ego_speed_mph: float
) -> list[Actor]:
    """The cut-in choreography rescaled to an ego speed.

    Gaps shrink proportionally with speed (floored so low-speed variants
    stay physical) and the cutter runs 15 mph below the ego, mirroring
    the 70/55 mph baseline.
    """
    ratio = ego_speed_mph / 70.0
    return _cut_in_actors(
        road,
        rng,
        ego_speed_mph=ego_speed_mph,
        actor_speed_mph=max(ego_speed_mph - 15.0, 5.0),
        trigger_gap=max(55.0 * ratio, 15.0),
        start_gap=max(75.0 * ratio, 25.0),
        duration=3.0,
        with_left_blocker=False,
    )


def _vehicle_following_variant_actors(
    road: Road, rng: np.random.Generator, ego_speed_mph: float
) -> list[Actor]:
    """The vehicle-following choreography rescaled to an ego speed.

    The 50 m lead gap of the 70 mph baseline shrinks proportionally
    (floored so the low-speed variants still leave a following task),
    with the baseline's brake onset, deceleration and jitters.
    """
    ratio = ego_speed_mph / 70.0
    return _vehicle_following_actors(
        road,
        rng,
        ego_speed_mph=ego_speed_mph,
        lead_gap=max(50.0 * ratio, 18.0),
    )


#: Per-family ego-speed-variant builders and their Table 1 activity tags.
_SWEEP_FAMILIES: dict = {
    "cut_out": (
        _cut_out_actors,
        {"front": True, "right": True, "left": True},
    ),
    "cut_in": (
        _cut_in_variant_actors,
        {"front": True, "right": False, "left": False},
    ),
    "vehicle_following": (
        _vehicle_following_variant_actors,
        {"front": True, "right": False, "left": False},
    ),
}


def speed_sweep(
    speeds_mph: tuple[float, ...] = DEFAULT_SWEEP_SPEEDS,
    families: tuple[str, ...] = ("cut_out", "cut_in"),
) -> list[str]:
    """Register ego-speed variants of the sweepable families.

    Campaigns need a grid wider than the nine Table 1 rows; this derives
    ``<family>_<speed>mph`` scenarios (e.g. ``cut_out_50mph``,
    ``vehicle_following_40mph``) whose choreography rescales with the
    ego speed. Registration is idempotent — already-registered variants
    are simply returned again — so expanding the catalog twice (CLI
    plus a library caller, or a campaign reload) is safe.

    Returns the variant names, in (family, speed) order.
    """
    names: list[str] = []
    for family in families:
        if family not in _SWEEP_FAMILIES:
            raise ConfigurationError(
                f"unknown sweep family {family!r}; "
                f"choose from {sorted(_SWEEP_FAMILIES)}"
            )
        builder, activity = _SWEEP_FAMILIES[family]
        for speed in speeds_mph:
            if speed <= 0.0:
                raise ConfigurationError(
                    f"sweep speeds must be positive, got {speed:g}"
                )
            name = f"{family}_{speed:g}mph"
            names.append(name)
            if name in SCENARIOS:
                continue
            _register(
                ScenarioSpec(
                    name=name,
                    description=(
                        f"{family.replace('_', '-')} family at "
                        f"{speed:g} mph ego speed (speed-sweep variant)"
                    ),
                    ego_speed_mph=speed,
                    ego_lane=1,
                    ego_station=_EGO_START,
                    activity=dict(activity),
                    paper_mrf="-",
                    build_road=_straight_road,
                    build_actors=(
                        lambda road, rng, _b=builder, _s=speed: _b(road, rng, _s)
                    ),
                    duration=35.0,
                )
            )
    return names


#: Actor counts the default density sweep derives variants at.
DEFAULT_DENSITY_COUNTS: tuple[int, ...] = (2, 4, 8)

#: Base scenarios the density sweep can crowd with background traffic:
#: ``family -> (queue start gap, variant duration)``. The queue gap is
#: tuned per family so the approach sweeps the latency grid's middle —
#: a stopped actor binds between roughly 150 and 300 m at highway
#: speeds, and from ~20 m at urban speed — while staying past the base
#: event's reach (the vehicle-following lead brakes from 70 mph over
#: ~390 m; a nearer queue would be rear-ended through no perception
#: fault). Durations trim the post-stop tail, where a stationary ego
#: makes every actor trivially feasible.
_DENSITY_FAMILIES: dict = {
    "cut_out": (90.0, 18.0),
    "cut_in": (300.0, 22.0),
    "vehicle_following": (430.0, 20.0),
    # The curved cut-in's 40 mph ego reaches a 120 m queue on the arc in
    # ~10 s, well after the base cut-in event resolves; queued actors sit
    # past the straight entry, so every corridor mask and gate-table
    # query exercises the composite (straight+arc) Frenet kernel.
    "challenging_cut_in_curved": (120.0, 24.0),
}


def _background_actors(
    road: Road,
    rng: np.random.Generator,
    count: int,
    ego_speed: float,
    ego_lane: int,
    ego_station: float,
    queue_offset: float,
) -> list[Actor]:
    """``count`` background vehicles crowding the scene.

    Even indices form a stopped queue ahead in the ego's lane — a
    traffic jam past the base choreography. Each queued vehicle is a
    genuine in-corridor threat whose tolerable latency sits mid-grid
    while the ego approaches at speed (a stopped actor's distance
    budget never grows, unlike moving traffic, which resolves at
    ``l_max``), so the latency search has real work at every tick:
    these are the workloads the batched engine exists for. The queue
    starts ``queue_offset`` metres out — far enough that the nominal
    planner always stops in time. Odd indices cruise the adjacent lanes ahead and
    behind, loading the lateral threat gate instead. All placement is
    seeded jitter, so a density variant is as reproducible as its base
    scenario.
    """
    side_lanes = [lane for lane in (0, 1, 2) if lane != ego_lane]
    actors: list[Actor] = []
    for i in range(count):
        rank = i // 2
        if i % 2 == 0:
            lane = ego_lane
            station = (
                ego_station + queue_offset + jittered(rng, 30.0, 0.15) * rank
            )
            # Small (or negative) queue_offset genes must not place the
            # queue off the road start, mirroring the odd-branch clamp.
            station = max(station, 4.0)
            speed = 0.0
        else:
            lane = side_lanes[rank % len(side_lanes)]
            offset = jittered(rng, 22.0 + 18.0 * rank, 0.15)
            station = ego_station + (offset if rank % 2 == 0 else -offset)
            # Deep platoons behind a near-road-start ego stay on the road.
            station = max(station, 4.0)
            speed = ego_speed * (0.85 + 0.1 * (rank % 3))
        actors.append(
            Actor(
                actor_id=f"background_{i}",
                road=road,
                behavior=Cruise(target_speed=speed),
                lane=lane,
                station=station,
                speed=speed,
            )
        )
    return actors


def density_sweep(
    counts: tuple[int, ...] = DEFAULT_DENSITY_COUNTS,
    families: tuple[str, ...] = tuple(_DENSITY_FAMILIES),
) -> list[str]:
    """Register crowded variants of the Table 1 base scenarios.

    ``<family>_dense<N>`` (e.g. ``cut_in_dense4``) keeps the family's
    base choreography and adds ``N`` background vehicles — the
    multi-actor workloads the batched latency engine is built for: each
    extra in-lane actor is another full latency-grid solve per tick.
    Idempotent, like :func:`speed_sweep`.

    Returns the variant names, in (family, count) order.
    """
    names: list[str] = []
    for family in families:
        if family not in _DENSITY_FAMILIES:
            raise ConfigurationError(
                f"unknown density family {family!r}; "
                f"choose from {sorted(_DENSITY_FAMILIES)}"
            )
        base = SCENARIOS[family]
        for count in counts:
            if count < 1:
                raise ConfigurationError(
                    f"density counts must be positive, got {count}"
                )
            name = f"{family}_dense{count}"
            names.append(name)
            if name in SCENARIOS:
                continue

            def build(
                road: Road,
                rng: np.random.Generator,
                _base: ScenarioSpec = base,
                _count: int = count,
                _offset: float = _DENSITY_FAMILIES[family][0],
            ) -> list[Actor]:
                actors = _base.build_actors(road, rng)
                return actors + _background_actors(
                    road,
                    rng,
                    _count,
                    ego_speed=mph_to_mps(_base.ego_speed_mph),
                    ego_lane=_base.ego_lane,
                    ego_station=_base.ego_station,
                    queue_offset=_offset,
                )

            _register(
                ScenarioSpec(
                    name=name,
                    description=(
                        f"{family.replace('_', '-')} with {count} "
                        "background vehicle(s) (density-sweep variant)"
                    ),
                    ego_speed_mph=base.ego_speed_mph,
                    ego_lane=base.ego_lane,
                    ego_station=base.ego_station,
                    activity={"front": True, "right": True, "left": True},
                    paper_mrf="-",
                    build_road=base.build_road,
                    build_actors=build,
                    duration=_DENSITY_FAMILIES[family][1],
                )
            )
    return names


#: Shape of a speed-sweep variant name, e.g. ``cut_out_50mph``.
_SWEEP_NAME = re.compile(
    r"^(cut_out|cut_in|vehicle_following)_(\d+(?:\.\d+)?)mph$"
)

#: Shape of a density-sweep variant name, e.g. ``cut_in_dense4``.
_DENSITY_NAME = re.compile(
    r"^(challenging_cut_in_curved|cut_out|cut_in|vehicle_following)"
    r"_dense(\d+)$"
)

#: Shape of a fuzzed-variant name, e.g. ``fuzzed_cut_out_1a2b3c4d5e``.
_FUZZED_NAME = re.compile(r"^fuzzed_[a-z0-9_]+_[0-9a-f]{10}$")


def ensure_scenario(name: str) -> bool:
    """Make ``name`` registered, deriving sweep variants on demand.

    The registry is process-local mutable state: a worker process under
    a ``spawn`` start method, or a fresh process reloading a campaign
    JSONL, has not seen the parent's ``speed_sweep()`` /
    :func:`density_sweep` call. Any name matching a sweep pattern
    carries its own recipe, so it can be re-derived here instead of
    failing. Returns whether the name is registered afterwards.
    """
    if name in SCENARIOS:
        return True
    match = _SWEEP_NAME.match(name)
    if match is not None:
        speed_sweep(
            speeds_mph=(float(match.group(2)),), families=(match.group(1),)
        )
        return name in SCENARIOS
    match = _DENSITY_NAME.match(name)
    if match is not None:
        density_sweep(
            counts=(int(match.group(2)),), families=(match.group(1),)
        )
        return name in SCENARIOS
    if _FUZZED_NAME.match(name) is not None:
        # Unlike sweep names, a fuzzed digest name does not carry its own
        # recipe; resolution consults the in-process recipe table and the
        # REPRO_FUZZ_RECIPES archive (how spawn workers and campaign
        # reloads rebuild fuzzed genomes). Imported lazily: fuzzed.py
        # imports this module.
        from repro.scenarios.fuzzed import resolve_fuzzed

        return resolve_fuzzed(name)
    return False


def build_scenario(name: str, seed: int = 0) -> BuiltScenario:
    """Instantiate a catalog scenario with a jitter seed."""
    if not ensure_scenario(name):
        raise ConfigurationError(
            f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}"
        )
    return BuiltScenario(SCENARIOS[name], seed=seed)
