"""Camera rig geometry.

The experimental vehicle carries five cameras (Section 4.1): two front
cameras with 60 and 120 degree FOV, two side cameras and a rear camera.
The paper analyzes the 120-degree front camera and the two side cameras;
:data:`ANALYZED_CAMERAS` names those three in the ``c1, c2, c3`` order of
Table 1's ``max(F_c1 + F_c2 + F_c3)`` column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from repro.dynamics.state import VehicleState
from repro.errors import ConfigurationError
from repro.geometry.fov import AngularSector
from repro.geometry.transforms import Frame2
from repro.geometry.vec import Vec2
from repro.units import wrap_angle

#: The three cameras whose estimates Table 1 reports (c1, c2, c3).
ANALYZED_CAMERAS: tuple[str, str, str] = ("front_120", "left", "right")


@dataclass(frozen=True)
class Camera:
    """One camera: a mounting frame on the ego body plus an FOV sector."""

    name: str
    mount: Frame2
    fov: AngularSector

    def world_frame(self, ego_state: VehicleState) -> Frame2:
        """The camera frame in world coordinates for a given ego state."""
        return ego_state.frame().compose(self.mount)

    def sees(self, ego_state: VehicleState, point: Vec2) -> bool:
        """Whether a world point is inside this camera's FOV."""
        return self.fov.contains(self.world_frame(ego_state), point)


class CameraRig:
    """An ordered collection of cameras mounted on the ego."""

    def __init__(self, cameras: Iterable[Camera]):
        self._cameras = list(cameras)
        if not self._cameras:
            raise ConfigurationError("a camera rig needs at least one camera")
        names = [camera.name for camera in self._cameras]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate camera names: {names}")
        self._by_name = {camera.name: camera for camera in self._cameras}

    @property
    def cameras(self) -> Sequence[Camera]:
        """All cameras in mounting order."""
        return tuple(self._cameras)

    @property
    def names(self) -> tuple[str, ...]:
        """Camera names in mounting order."""
        return tuple(camera.name for camera in self._cameras)

    def __getitem__(self, name: str) -> Camera:
        if name not in self._by_name:
            raise ConfigurationError(
                f"no camera named {name!r}; rig has {sorted(self._by_name)}"
            )
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self._cameras)

    def visible_actors(
        self,
        ego_state: VehicleState,
        actor_positions: Mapping[Hashable, Vec2],
    ) -> dict[str, list[Hashable]]:
        """Which actors fall in which camera FOV (an actor may be in many)."""
        visibility: dict[str, list[Hashable]] = {
            camera.name: [] for camera in self._cameras
        }
        frames = {
            camera.name: camera.world_frame(ego_state)
            for camera in self._cameras
        }
        for actor_id, position in actor_positions.items():
            for camera in self._cameras:
                if camera.fov.contains_local(
                    frames[camera.name].to_local(position)
                ):
                    visibility[camera.name].append(actor_id)
        return visibility

    def visibility_trace(
        self,
        ego_states: Sequence[VehicleState],
        actor_positions: Mapping[Hashable, tuple[np.ndarray, np.ndarray]],
        detected: Mapping[Hashable, np.ndarray] | None = None,
    ) -> dict[str, np.ndarray]:
        """Per-camera FOV membership over a whole trace, as bit tables.

        The Equation 5 grouping question — "which actors are in which
        camera's field of view" — answered for every tick of a trace in
        one array program per camera. The per-tick camera frames are
        composed exactly as :meth:`visible_actors` composes them (the
        same scalar trigonometry per tick), and the per-point membership
        runs through
        :meth:`repro.geometry.fov.AngularSector.contains_local_batch`,
        so each table entry is bit-identical to the corresponding
        per-tick :meth:`visible_actors` verdict.

        Args:
            ego_states: the ego state at each tick.
            actor_positions: per actor, the ``(xs, ys)`` world position
                arrays over the same ticks.
            detected: optional per-actor detection masks (one bool per
                tick), ANDed into every camera's column: an undetected
                actor is indistinguishable from one outside the FOV for
                the Equation 5 grouping.

        Returns:
            Per camera, a boolean array of shape
            ``(len(ego_states), len(actor_positions))`` whose columns
            follow the mapping's iteration order.
        """
        return self.visibility_traces(
            [(ego_states, actor_positions)], detected=[detected]
        )[0]

    def visibility_traces(
        self,
        blocks: Sequence[
            tuple[
                Sequence[VehicleState],
                Mapping[Hashable, tuple[np.ndarray, np.ndarray]],
            ]
        ],
        detected: Sequence[Mapping[Hashable, np.ndarray] | None] | None = None,
    ) -> list[dict[str, np.ndarray]]:
        """:meth:`visibility_trace` for a stack of traces at once.

        The cross-trace lift of the Equation 5 grouping kernel: the
        per-camera frame constants are derived in one pass over the
        *concatenated* tick axis of every block — with each tick's ego
        body frame composed once and shared by all cameras — and each
        trace's membership table is then one
        :meth:`~repro.geometry.fov.AngularSector.contains_local_batch`
        call against its own actor arrays (actor sets differ per trace,
        so the tables cannot share columns). Per tick and per camera
        the scalar trigonometry is exactly :meth:`visible_actors`'s
        frame composition, so every table entry is bit-identical to a
        single-trace :meth:`visibility_trace` build.

        Args:
            blocks: per trace, the ``(ego_states, actor_positions)``
                pair :meth:`visibility_trace` takes.
            detected: optional per-block detection masks, each applied
                as :meth:`visibility_trace` applies its own.

        Returns:
            One per-camera table dict per block, in block order.
        """
        if detected is None:
            detected = [None] * len(blocks)
        offsets = [0]
        for ego_states, _ in blocks:
            offsets.append(offsets[-1] + len(ego_states))
        total = offsets[-1]
        # Frame constants for every (camera, tick) pair, as
        # camera_poses() derives them.
        origin_x = {camera.name: np.empty(total) for camera in self._cameras}
        origin_y = {camera.name: np.empty(total) for camera in self._cameras}
        rot_c = {camera.name: np.empty(total) for camera in self._cameras}
        rot_s = {camera.name: np.empty(total) for camera in self._cameras}
        i = 0
        for ego_states, _ in blocks:
            for ego_state in ego_states:
                for camera, pose in zip(
                    self._cameras, camera_poses(self._cameras, ego_state)
                ):
                    (
                        origin_x[camera.name][i],
                        origin_y[camera.name][i],
                        rot_c[camera.name][i],
                        rot_s[camera.name][i],
                    ) = pose
                i += 1

        out: list[dict[str, np.ndarray]] = []
        for block_index, ((ego_states, actor_positions), block_detected) in (
            enumerate(zip(blocks, detected))
        ):
            lo, hi = offsets[block_index], offsets[block_index + 1]
            tick_count = hi - lo
            ids = list(actor_positions)
            if not ids:
                out.append(
                    {
                        camera.name: np.zeros((tick_count, 0), dtype=bool)
                        for camera in self._cameras
                    }
                )
                continue
            xs = np.stack(
                [np.asarray(actor_positions[a][0], dtype=float) for a in ids],
                axis=1,
            )
            ys = np.stack(
                [np.asarray(actor_positions[a][1], dtype=float) for a in ids],
                axis=1,
            )
            mask = (
                None
                if block_detected is None
                else np.stack(
                    [np.asarray(block_detected[a], dtype=bool) for a in ids],
                    axis=1,
                )
            )
            tables: dict[str, np.ndarray] = {}
            for camera in self._cameras:
                dx = xs - origin_x[camera.name][lo:hi, None]
                dy = ys - origin_y[camera.name][lo:hi, None]
                local_x = (
                    rot_c[camera.name][lo:hi, None] * dx
                    - rot_s[camera.name][lo:hi, None] * dy
                )
                local_y = (
                    rot_s[camera.name][lo:hi, None] * dx
                    + rot_c[camera.name][lo:hi, None] * dy
                )
                table = camera.fov.contains_local_batch(local_x, local_y)
                tables[camera.name] = table if mask is None else table & mask
            out.append(tables)
        return out

    def visible_actors_trace(
        self,
        ego_states: Sequence[VehicleState],
        actor_positions: Mapping[Hashable, tuple[np.ndarray, np.ndarray]],
        detected: Mapping[Hashable, np.ndarray] | None = None,
    ) -> list[dict[str, list[Hashable]]]:
        """Batched :meth:`visible_actors` over every tick of a trace.

        Semantically ``[visible_actors(ego_states[i], {a: (xs[i], ys[i])
        ...}) for i in ticks]`` — identical groupings, identical ordering
        (camera lists carry actors in the mapping's iteration order) —
        computed through the :meth:`visibility_trace` array kernel
        instead of a per-tick Python loop. An optional ``detected``
        mask (per actor, one bool per tick) drops undetected actors
        from the groupings, exactly as if they had been removed from
        that tick's ``actor_positions`` mapping.
        """
        tables = self.visibility_trace(ego_states, actor_positions, detected)
        return self._group_tables(
            list(actor_positions), len(ego_states), tables
        )

    def visible_actors_traces(
        self,
        blocks: Sequence[
            tuple[
                Sequence[VehicleState],
                Mapping[Hashable, tuple[np.ndarray, np.ndarray]],
            ]
        ],
        detected: Sequence[Mapping[Hashable, np.ndarray] | None] | None = None,
    ) -> list[list[dict[str, list[Hashable]]]]:
        """:meth:`visible_actors_trace` for a stack of traces at once.

        One :meth:`visibility_traces` pass, then each block's tables
        unpack into the per-tick grouping dicts — groupings identical
        to running :meth:`visible_actors_trace` per block, including
        its optional per-block ``detected`` masking.
        """
        return [
            self._group_tables(list(actor_positions), len(ego_states), tables)
            for (ego_states, actor_positions), tables in zip(
                blocks, self.visibility_traces(blocks, detected)
            )
        ]

    def _group_tables(
        self,
        ids: list[Hashable],
        tick_count: int,
        tables: Mapping[str, np.ndarray],
    ) -> list[dict[str, list[Hashable]]]:
        """Bit tables to per-tick camera groupings (mapping order kept)."""
        return [
            {
                camera.name: [
                    ids[j] for j in np.flatnonzero(tables[camera.name][i])
                ]
                for camera in self._cameras
            }
            for i in range(tick_count)
        ]


def camera_poses(
    cameras: Sequence[Camera], ego_state: VehicleState
) -> list[tuple[float, float, float, float]]:
    """Per camera, its world frame at ``ego_state`` in plain floats.

    Each entry is ``(origin_x, origin_y, cos, sin)``: the origin of
    :meth:`Camera.world_frame` and the rotation constants
    ``cos(-heading)``, ``sin(-heading)`` that
    :meth:`repro.geometry.transforms.Frame2.to_local` derives from its
    heading. The float operations are the ones :meth:`Frame2.compose`
    runs, with the ego's rotation computed once for all cameras, so
    both kernels that gate points by camera (the detection batch and
    the trace-level visibility tables) see the scalar frames' exact
    values.
    """
    position = ego_state.position
    heading = ego_state.heading
    c, s = math.cos(heading), math.sin(heading)
    poses = []
    for camera in cameras:
        mount = camera.mount
        mx, my = mount.origin.x, mount.origin.y
        world_heading = wrap_angle(heading + mount.heading)
        poses.append(
            (
                position.x + (c * mx - s * my),
                position.y + (s * mx + c * my),
                math.cos(-world_heading),
                math.sin(-world_heading),
            )
        )
    return poses


def default_rig(
    front_range: float = 200.0,
    side_range: float = 100.0,
    rear_range: float = 120.0,
) -> CameraRig:
    """The paper's five-camera layout.

    Front cameras mount at the windshield (+1.5 m), side cameras at the
    mirrors (offset laterally, looking 90 degrees outwards) and the rear
    camera at the tailgate. Side and rear use 120-degree optics.
    """
    deg = math.radians
    return CameraRig(
        [
            Camera(
                name="front_60",
                mount=Frame2(Vec2(1.5, 0.0), 0.0),
                fov=AngularSector(0.0, deg(60.0), front_range),
            ),
            Camera(
                name="front_120",
                mount=Frame2(Vec2(1.5, 0.0), 0.0),
                fov=AngularSector(0.0, deg(120.0), front_range),
            ),
            Camera(
                name="left",
                mount=Frame2(Vec2(0.5, 0.9), deg(90.0)),
                fov=AngularSector(0.0, deg(120.0), side_range),
            ),
            Camera(
                name="right",
                mount=Frame2(Vec2(0.5, -0.9), deg(-90.0)),
                fov=AngularSector(0.0, deg(120.0), side_range),
            ),
            Camera(
                name="rear",
                mount=Frame2(Vec2(-2.0, 0.0), deg(180.0)),
                fov=AngularSector(0.0, deg(120.0), rear_range),
            ),
        ]
    )
