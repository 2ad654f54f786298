"""Per-frame actor detection for the cameras due at one instant.

Detection here is geometric: an actor is detected when its centre lies in
the camera's FOV sector, is not occluded by another actor (optional — the
paper lists occlusion handling as future work, so it defaults off), and
survives a configurable miss probability. Measured position carries
Gaussian noise; downstream velocity estimation differentiates positions,
so noise and frame rate interact exactly as in a real stack.

Every stage runs as one array program over all the frames captured at
an instant (:meth:`DetectionModel.detect_frames`; a single camera's
:meth:`DetectionModel.detect` is the one-camera case). The FOV gate is
one broadcast (cameras, actors) call of
:func:`repro.geometry.fov.sector_membership`, the kernel the
trace-level visibility tables use, on every camera's stacked frame and
sector constants; the occlusion test solves the slab intersection for
every (camera, in-FOV target) sight ray against every potential blocker
at once (:func:`occlusion_mask`). The random stages (miss sampling,
position noise) draw through the counter-based generator of
:mod:`repro.core.rng`: every draw is a pure function of ``(seed,
stream, camera, capture time, actor id)``, so a frame's verdicts depend
neither on how many frames any camera captured before it nor on which
other cameras fired at the same instant — all of an instant's draws
compute as one vectorized call (its time-free key parts memoized per
run, :meth:`KeyWords.pair_hash`), and re-simulating from any point of a
run reproduces them bit for bit. (Traces recorded
before this counter-keyed scheme consumed a stateful
``np.random.Generator`` in iteration order and drew different streams;
see docs/TESTING.md's RNG determinism contract for the deliberate
break.)
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

import numpy as np

from repro.core.rng import (
    STREAM_MISS,
    STREAM_NOISE_X,
    STREAM_NOISE_Y,
    absorb_mixed,
    counter_hash,
    hash_normal,
    hash_uniform,
    key_mix,
    stable_key,
    time_key,
)
from repro.dynamics.state import VehicleSpec, VehicleState
from repro.errors import ConfigurationError
from repro.geometry.boxes import PARALLEL_EPS
from repro.geometry.fov import sector_membership
from repro.geometry.vec import Vec2
from repro.perception.sensor import Camera, camera_poses

#: The sight ray is shortened by this much at the target end so the
#: target's own footprint never "occludes" itself (metres).
_TARGET_CLEARANCE = 2.8

#: The x and y position-noise streams as a column of tag words.
_NOISE_STREAMS = np.array(
    [[STREAM_NOISE_X], [STREAM_NOISE_Y]], dtype=np.uint64
)


@dataclass(frozen=True)
class Detection:
    """One detected actor in one camera frame."""

    actor_id: Hashable
    camera: str
    time: float
    position: Vec2
    true_speed: float
    true_heading: float


@dataclass(frozen=True)
class CameraFrame:
    """What one camera frame detected, and what it could have seen.

    Attributes:
        camera: the capturing camera's name.
        detections: detected actors, in the actor mapping's order.
        in_view: ids of the actors inside the camera's FOV, occluded or
            missed ones included — the tracker's "expected" set.
    """

    camera: str
    detections: tuple[Detection, ...]
    in_view: frozenset


class KeyWords(dict):
    """Memoized :func:`repro.core.rng.stable_key` words, id → word.

    A word is a pure function of its id, so one memo serves camera
    names and actor ids alike and may live as long as its owner: a
    :class:`repro.perception.pipeline.PerceptionSystem` keeps one per
    run, hashing each camera and actor id once instead of every frame.

    It also memoizes the time-free parts of the detection draws' key
    ``(seed, stream, camera, time, actor)`` (:meth:`pair_hash`): the
    hash state after ``(seed, stream, camera)`` and each actor word's
    diffusion, both pure functions of their inputs.
    """

    def __init__(self):
        super().__init__()
        self._prefixes: dict[tuple[int, int, Hashable], int] = {}
        self._mixed: dict[Hashable, int] = {}

    def __missing__(self, value: Hashable) -> np.uint64:
        word = self[value] = stable_key(value)
        return word

    def pair_hash(
        self,
        seed: int,
        stream: object,
        cameras: Sequence[Hashable],
        rows: np.ndarray,
        time: float,
        actors: Sequence[Hashable],
        kept: np.ndarray,
    ) -> np.ndarray:
        """Memoized ``counter_hash(seed, stream, cameras[rows], time, actors[kept])``.

        Bit for bit :func:`repro.core.rng.counter_hash` over the pairs'
        camera words, ``time_key(time)`` and actor words: the state after
        ``(seed, stream, camera)`` comes from the memo (keyed by the seed
        too), and so does each actor word's :func:`key_mix`; a call
        diffuses only its time word and folds it and the actor words in.

        Args:
            seed: root seed of the draws.
            stream: one stream tag, or a column of tags (shape
                ``(n, 1)``) broadcast against the pairs, as
                ``counter_hash`` broadcasts it.
            cameras / actors: the distinct camera and actor ids.
            rows / kept: per pair, the index of its camera and actor.

        Returns:
            uint64 words of shape ``(len(rows),)``, or ``(n, len(rows))``
            for a column of tags.
        """
        tags = np.ravel(stream).tolist()
        prefixes = np.array(
            [[self._prefix(seed, tag, camera) for camera in cameras] for tag in tags],
            dtype=np.uint64,
        )
        mixed = np.array([self._mix(actor) for actor in actors], dtype=np.uint64)
        state = prefixes[:, rows] if np.ndim(stream) else prefixes[0, rows]
        state = absorb_mixed(state, key_mix(time_key(time)))
        return absorb_mixed(state, mixed[kept])

    def _prefix(self, seed: int, tag: int, camera: Hashable) -> int:
        key = (seed, tag, camera)
        state = self._prefixes.get(key)
        if state is None:
            state = self._prefixes[key] = int(
                counter_hash(seed, np.uint64(tag), self[camera])
            )
        return state

    def _mix(self, actor: Hashable) -> int:
        mixed = self._mixed.get(actor)
        if mixed is None:
            mixed = self._mixed[actor] = int(key_mix(self[actor]))
        return mixed


def occlusion_mask(
    eye_x: np.ndarray,
    eye_y: np.ndarray,
    targets: np.ndarray,
    actors: Sequence[tuple[VehicleState, VehicleSpec]],
) -> np.ndarray:
    """Which sight rays are blocked by another actor's footprint.

    Row ``r`` is the ray from the eye ``(eye_x[r], eye_y[r])`` to the
    centre of actor ``targets[r]``; the rows of one instant may mix any
    number of eyes (one per capturing camera). All rows are tested
    against every actor's oriented box at once with the slab method —
    the vectorized counterpart of looping
    :func:`repro.geometry.boxes.segment_intersects_box` over rows and
    blockers. The slab arithmetic mirrors the scalar test operation for
    operation, so box verdicts on a given ray are identical; the ray is
    shortened by the clearance with the kernels' sqrt-of-squares
    distance (not ``math.hypot``), which clearance-boundary cases can
    feel at the last ulp.

    Args:
        eye_x / eye_y: per row, the ray origin (world frame).
        targets: per row, the target's index in ``actors``; its own
            footprint is excluded.
        actors: every actor's ``(state, spec)`` in a fixed order.

    Returns:
        Boolean array aligned with the rows.
    """
    targets = np.asarray(targets, dtype=np.intp)
    rows = targets.size
    if len(actors) < 2 or rows == 0:
        return np.zeros(rows, dtype=bool)
    # The blocker arrays, shared by every row. The box axes are the ones
    # OrientedBox.axes() derives: forward = unit(heading), left =
    # forward.perp() = (-fwd_y, fwd_x).
    center_x = np.array([state.position.x for state, _ in actors])
    center_y = np.array([state.position.y for state, _ in actors])
    fwd_x = np.array([math.cos(state.heading) for state, _ in actors])
    fwd_y = np.array([math.sin(state.heading) for state, _ in actors])
    half_len = np.array([spec.length / 2.0 for _, spec in actors])
    half_wid = np.array([spec.width / 2.0 for _, spec in actors])

    # Rows down, blockers across.
    eye_x = np.asarray(eye_x, dtype=float)[:, None]
    eye_y = np.asarray(eye_y, dtype=float)[:, None]
    eye_dx = eye_x - center_x
    eye_dy = eye_y - center_y
    start_x = eye_dx * fwd_x + eye_dy * fwd_y
    start_y = eye_dx * -fwd_y + eye_dy * fwd_x

    ray_x = center_x[targets][:, None] - eye_x
    ray_y = center_y[targets][:, None] - eye_y
    distance = np.sqrt(ray_x * ray_x + ray_y * ray_y)
    # Rays no longer than the clearance are never blocked; their
    # (meaningless, possibly non-finite) slab values are masked below.
    clear = distance[:, 0] > _TARGET_CLEARANCE
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = (distance - _TARGET_CLEARANCE) / distance
        end_dx = (eye_x + ray_x * scale) - center_x
        end_dy = (eye_y + ray_y * scale) - center_y
        local_end_x = end_dx * fwd_x + end_dy * fwd_y
        local_end_y = end_dx * -fwd_y + end_dy * fwd_x

        shape = (rows, len(actors))
        t_min = np.zeros(shape)
        t_max = np.ones(shape)
        parallel_miss = np.zeros(shape, dtype=bool)
        for start, end, half in (
            (start_x, local_end_x, half_len),
            (start_y, local_end_y, half_wid),
        ):
            direction = end - start
            parallel = np.abs(direction) < PARALLEL_EPS
            parallel_miss |= parallel & (np.abs(start) > half)
            safe = np.where(parallel, 1.0, direction)
            t1 = (-half - start) / safe
            t2 = (half - start) / safe
            lo = np.minimum(t1, t2)
            hi = np.maximum(t1, t2)
            t_min = np.where(parallel, t_min, np.maximum(t_min, lo))
            t_max = np.where(parallel, t_max, np.minimum(t_max, hi))
    intersects = ~parallel_miss & (t_min <= t_max)
    intersects[np.arange(rows), targets] = False
    return clear & intersects.any(axis=1)


@dataclass(frozen=True)
class DetectionModel:
    """Detection characteristics shared by all cameras.

    Attributes:
        position_noise: standard deviation of the measured position (m).
        miss_rate: probability that a visible actor is missed in a frame.
        occlusion: whether actors hidden behind other actors are dropped
            (an extension beyond the paper; defaults off).
    """

    position_noise: float = 0.1
    miss_rate: float = 0.0
    occlusion: bool = False

    def __post_init__(self) -> None:
        if self.position_noise < 0.0:
            raise ConfigurationError("position noise must be non-negative")
        if not 0.0 <= self.miss_rate < 1.0:
            raise ConfigurationError(
                f"miss rate must be in [0, 1), got {self.miss_rate}"
            )

    def detect(
        self,
        camera: Camera,
        ego_state: VehicleState,
        time: float,
        actors: Mapping[Hashable, tuple[VehicleState, VehicleSpec]],
        seed: int,
    ) -> list[Detection]:
        """Detections produced by one camera frame captured at ``time``.

        The one-camera case of :meth:`detect_frames`.
        """
        frame = self.detect_frames((camera,), ego_state, time, actors, seed)[0]
        return list(frame.detections)

    def detect_frames(
        self,
        cameras: Sequence[Camera],
        ego_state: VehicleState,
        time: float,
        actors: Mapping[Hashable, tuple[VehicleState, VehicleSpec]],
        seed: int,
        words: KeyWords | None = None,
    ) -> list[CameraFrame]:
        """The frames ``cameras`` capture together at ``time``.

        One array program over (camera, actor) pairs: the FOV gate of
        every camera at once, then the occlusion test over every in-FOV
        pair's sight ray, then one counter-RNG draw batch over every
        surviving pair (one hash batch for the misses, one for both
        noise axes). Miss sampling and position noise are
        counter-keyed on ``(seed, stream, camera name, time, actor
        id)`` — order-free: a camera's frame draws the same values
        whether it is captured alone or with other cameras, whichever
        cameras fired before it and wherever along a run the simulation
        (re)started.

        Args:
            cameras: the capturing cameras, each at most once.
            ego_state: the ego's state at ``time``.
            time: the capture time.
            actors: every actor's ``(state, spec)`` at ``time``.
            seed: root seed of the detection draws.
            words: optional key memo (ids' words and the draws'
                time-free hash parts) reused across calls.

        Returns:
            One frame per camera, in ``cameras`` order.
        """
        ids = list(actors)
        if not ids or not cameras:
            return [
                CameraFrame(camera.name, (), frozenset()) for camera in cameras
            ]
        pairs = list(actors.values())
        states = [state for state, _ in pairs]
        xs = np.array([state.position.x for state in states])
        ys = np.array([state.position.y for state in states])
        # One row per camera: its world frame at this instant, then its
        # sector's membership constants, as (cameras, 1) columns that
        # broadcast against the actors.
        table = np.array(
            [
                pose + camera.fov.membership_constants
                for camera, pose in zip(
                    cameras, camera_poses(cameras, ego_state)
                )
            ]
        )
        (
            eye_x, eye_y, rot_c, rot_s, range_sq, cos, sin, cos_edge, full
        ) = table.T[:, :, None]
        # Frame2.to_local's arithmetic, every camera at once.
        dx = xs - eye_x
        dy = ys - eye_y
        in_fov = sector_membership(
            rot_c * dx - rot_s * dy,
            rot_s * dx + rot_c * dy,
            range_sq,
            cos,
            sin,
            cos_edge,
            full != 0.0,
        )
        visible = in_fov
        if self.occlusion:
            rows, targets = np.nonzero(in_fov)
            blocked = occlusion_mask(
                eye_x[rows, 0], eye_y[rows, 0], targets, pairs
            )
            visible = in_fov.copy()
            visible[rows[blocked], targets[blocked]] = False

        # One draw batch over every surviving (camera, actor) pair. Each
        # value is a pure function of its own key, so the batch's
        # composition cannot shift any pair's draws.
        rows, kept = np.nonzero(visible)
        missed = np.zeros(rows.size, dtype=bool)
        noise_x = noise_y = np.zeros(rows.size)
        if rows.size and (self.miss_rate > 0.0 or self.position_noise > 0.0):
            words = words if words is not None else KeyWords()
            names = [camera.name for camera in cameras]
            if self.miss_rate > 0.0:
                uniform = hash_uniform(
                    words.pair_hash(
                        seed, STREAM_MISS, names, rows, time, ids, kept
                    )
                )
                missed = uniform < self.miss_rate
            if self.position_noise > 0.0:
                # Both axes in one call: the stream tags broadcast as a
                # column against the pairs.
                noise_x, noise_y = self.position_noise * hash_normal(
                    words.pair_hash(
                        seed, _NOISE_STREAMS, names, rows, time, ids, kept
                    )
                )

        detections: list[list[Detection]] = [[] for _ in cameras]
        for row, index, miss, dx, dy in zip(
            rows.tolist(),
            kept.tolist(),
            missed.tolist(),
            noise_x.tolist(),
            noise_y.tolist(),
        ):
            if miss:
                continue
            state = states[index]
            detections[row].append(
                Detection(
                    actor_id=ids[index],
                    camera=cameras[row].name,
                    time=time,
                    position=state.position + Vec2(dx, dy),
                    true_speed=state.speed,
                    true_heading=state.heading,
                )
            )
        return [
            CameraFrame(
                camera=camera.name,
                detections=tuple(found),
                in_view=frozenset(itertools.compress(ids, row_in_fov)),
            )
            for camera, found, row_in_fov in zip(
                cameras, detections, in_fov.tolist()
            )
        ]
