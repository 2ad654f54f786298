"""The FPR-scheduled perception system.

Each camera captures frames at its own processing rate; a frame's
detections reach the tracker (and hence the world model) only after the
processing latency ``l0 = 1 / FPR``. Changing a camera's rate at runtime
— what Zhuyi-based work prioritization does — simply reschedules its next
capture.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Hashable, Mapping

from repro.dynamics.state import VehicleSpec, VehicleState
from repro.errors import ConfigurationError
from repro.perception.detection import Detection, DetectionModel, KeyWords
from repro.perception.sensor import default_rig
from repro.perception.tracker import ConfirmationTracker
from repro.perception.world_model import PerceivedActor, WorldModel

#: Lowest accepted camera rate (frames per second).
MIN_FPR = 0.5
#: Highest accepted camera rate (frames per second).
MAX_FPR = 120.0


def check_fpr(rate: float) -> float:
    """``rate`` as a float, when a camera can be configured to run at it.

    A configured rate the simulator cannot honour is an error, not a
    clamp: a run at 200 FPR would otherwise simulate 120 and report
    200. Runtime retuning (:meth:`PerceptionSystem.set_fpr`) still
    clamps.

    Raises:
        ConfigurationError: unless ``rate`` is finite and within
            [:data:`MIN_FPR`, :data:`MAX_FPR`].
    """
    rate = float(rate)
    # NaN fails both comparisons; infinities fall outside the range.
    if not MIN_FPR <= rate <= MAX_FPR:
        raise ConfigurationError(
            f"FPR must be within [{MIN_FPR:g}, {MAX_FPR:g}], got {rate}"
        )
    return rate


@dataclass(frozen=True)
class _PendingFrame:
    """A captured frame waiting out its processing latency."""

    ready_time: float
    capture_time: float
    detections: tuple[Detection, ...]
    expected: frozenset


class PerceptionSystem:
    """Multi-camera perception with per-camera processing rates.

    The cameras are the paper's five-camera rig
    (:func:`~repro.perception.sensor.default_rig`); a frame's processing
    latency is one frame period, the paper's ``l0 = 1/FPR``.

    Args:
        detection_model: shared detection characteristics.
        fpr: initial rate for every camera — a scalar applied to all, or
            a per-camera mapping; each must pass :func:`check_fpr`.
        confirmation_hits: the tracker's ``K``.
        seed: root seed for detection noise. Draws are counter-keyed
            (:mod:`repro.core.rng`) on ``(seed, camera, capture time,
            actor)`` — no generator state lives here, so equal inputs
            always draw equal noise; :meth:`reset` restores the
            scheduling/tracking state for a bit-identical re-run.
    """

    def __init__(
        self,
        detection_model: DetectionModel | None = None,
        fpr: float | Mapping[str, float] = 30.0,
        confirmation_hits: int = 5,
        seed: int = 0,
    ):
        self.rig = default_rig()
        self.detection_model = (
            detection_model if detection_model is not None else DetectionModel()
        )
        self.tracker = ConfirmationTracker(confirmation_hits=confirmation_hits)
        self.world_model = WorldModel()
        self.seed = int(seed)
        self._confirmation_hits = confirmation_hits
        self._fpr: dict[str, float] = {}
        self._next_capture: dict[str, float] = {}
        self._frames_captured: dict[str, int] = {
            name: 0 for name in self.rig.names
        }
        self._pending: list[tuple[float, int, _PendingFrame]] = []
        self._sequence = itertools.count()
        # Camera and actor key words, hashed once per run (a word is a
        # pure function of its id, so reset() keeps them).
        self._key_words = KeyWords()
        if isinstance(fpr, Mapping):
            rates = dict(fpr)
            missing = set(self.rig.names) - set(rates)
            if missing:
                raise ConfigurationError(f"no FPR given for cameras {missing}")
        else:
            rates = {name: float(fpr) for name in self.rig.names}
        for name, rate in rates.items():
            self.set_fpr(name, check_fpr(rate))
            self._next_capture[name] = 0.0
        self._initial_fpr = dict(self._fpr)

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------

    def fpr(self, camera: str) -> float:
        """Current processing rate of a camera (frames/second)."""
        self._check_camera(camera)
        return self._fpr[camera]

    def fprs(self) -> dict[str, float]:
        """Current processing rate of every camera."""
        return dict(self._fpr)

    @property
    def rates(self) -> Mapping[str, float]:
        """:meth:`fprs` as a read-only live view, without the copy."""
        return MappingProxyType(self._fpr)

    def set_fpr(self, camera: str, rate: float) -> None:
        """Change a camera's processing rate (clamped to sane bounds)."""
        self._check_camera(camera)
        self._fpr[camera] = min(max(rate, MIN_FPR), MAX_FPR)

    def processing_latency(self, camera: str) -> float:
        """The camera's ``l0`` — one frame period."""
        return 1.0 / self.fpr(camera)

    def frames_captured(self, camera: str | None = None) -> int:
        """Frames captured so far (one camera, or all when ``None``)."""
        if camera is None:
            return sum(self._frames_captured.values())
        self._check_camera(camera)
        return self._frames_captured[camera]

    def _check_camera(self, camera: str) -> None:
        if camera not in self.rig:
            raise ConfigurationError(f"unknown camera {camera!r}")

    def reset(self) -> None:
        """Return the pipeline to its just-constructed state.

        Clears the capture schedule, pending frames, tracker and world
        model, and restores the construction-time camera rates. Because
        detection draws are counter-keyed on the capture times rather
        than consumed from a stateful generator, a reset pipeline
        stepped through the same inputs reproduces every detection bit
        for bit — the regression the old ``self._rng`` design could not
        satisfy (its draw stream carried across runs).
        """
        self.tracker = ConfirmationTracker(
            confirmation_hits=self._confirmation_hits
        )
        self.world_model = WorldModel()
        self._fpr = dict(self._initial_fpr)
        self._next_capture = {name: 0.0 for name in self._fpr}
        self._frames_captured = {name: 0 for name in self.rig.names}
        self._pending = []
        self._sequence = itertools.count()

    # ------------------------------------------------------------------
    # simulation hook
    # ------------------------------------------------------------------

    def step(
        self,
        now: float,
        ego_state: VehicleState,
        actors: Mapping[Hashable, tuple[VehicleState, VehicleSpec]],
    ) -> None:
        """Advance perception to ``now``.

        Captures the camera frames that are due — all of them as one
        detection batch — then applies every pending frame whose
        processing has finished.
        """
        self._capture_due_frames(now, ego_state, actors)
        self._apply_ready_frames(now)

    def _capture_due_frames(
        self,
        now: float,
        ego_state: VehicleState,
        actors: Mapping[Hashable, tuple[VehicleState, VehicleSpec]],
    ) -> None:
        due = [
            camera
            for camera in self.rig.cameras
            if now + 1e-9 >= self._next_capture[camera.name]
        ]
        if not due:
            # Most sim steps capture nothing.
            return
        frames = self.detection_model.detect_frames(
            due, ego_state, now, actors, self.seed, self._key_words
        )
        for camera, frame in zip(due, frames):
            ready = now + self.processing_latency(camera.name)
            heapq.heappush(
                self._pending,
                (
                    ready,
                    next(self._sequence),
                    _PendingFrame(
                        ready_time=ready,
                        capture_time=now,
                        detections=frame.detections,
                        expected=frame.in_view,
                    ),
                ),
            )
            self._frames_captured[camera.name] += 1
            self._next_capture[camera.name] = now + 1.0 / self._fpr[camera.name]

    def _apply_ready_frames(self, now: float) -> None:
        while self._pending and self._pending[0][0] <= now + 1e-9:
            _, _, frame = heapq.heappop(self._pending)
            self.tracker.update(
                frame.capture_time, frame.detections, frame.expected
            )
            self._refresh_world_model()

    def _refresh_world_model(self) -> None:
        confirmed = self.tracker.confirmed_tracks()
        for actor_id in list(self.world_model.actors()):
            if actor_id not in confirmed:
                self.world_model.remove(actor_id)
        for actor_id, track in confirmed.items():
            self.world_model.upsert(
                PerceivedActor(
                    actor_id=actor_id,
                    position=track.position,
                    velocity=track.velocity,
                    heading=track.heading,
                    speed=track.speed,
                    accel=track.accel,
                    timestamp=track.last_update,
                )
            )
