"""Per-frame detection: FOV, occlusion, noise, misses."""

import math

import numpy as np
import pytest

from repro.dynamics.state import VehicleSpec, VehicleState
from repro.errors import ConfigurationError
from repro.geometry.fov import AngularSector
from repro.geometry.transforms import Frame2
from repro.geometry.vec import Vec2
from repro.core.rng import stable_key
from repro.perception.detection import DetectionModel, KeyWords
from repro.perception.sensor import Camera, default_rig


def vstate(x: float, y: float = 0.0, speed: float = 10.0) -> VehicleState:
    return VehicleState(Vec2(x, y), 0.0, speed, 0.0)


@pytest.fixture
def rig():
    return default_rig()


SPEC = VehicleSpec()


class TestBasicDetection:
    def test_detects_actor_in_fov(self, rig):
        model = DetectionModel(position_noise=0.0)
        detections = model.detect(
            rig["front_120"], vstate(0), 1.0,
            {"a": (vstate(50), SPEC)}, seed=0,
        )
        assert [d.actor_id for d in detections] == ["a"]
        assert detections[0].time == 1.0
        assert detections[0].position == Vec2(50, 0)

    def test_ignores_actor_outside_fov(self, rig):
        model = DetectionModel()
        detections = model.detect(
            rig["front_120"], vstate(0), 0.0,
            {"behind": (vstate(-50), SPEC)}, seed=0,
        )
        assert detections == []

    def test_noise_perturbs_position(self, rig):
        model = DetectionModel(position_noise=0.5)
        detections = model.detect(
            rig["front_120"], vstate(0), 0.0,
            {"a": (vstate(50), SPEC)}, seed=7,
        )
        assert detections[0].position != Vec2(50, 0)
        assert detections[0].position.distance_to(Vec2(50, 0)) < 3.0

    def test_noise_varies_over_time_and_actors(self, rig):
        model = DetectionModel(position_noise=0.5)
        at = lambda t: model.detect(  # noqa: E731 - tiny local helper
            rig["front_120"], vstate(0), t,
            {"a": (vstate(50), SPEC), "b": (vstate(40, 3.0), SPEC)}, seed=7,
        )
        first, second = at(0.0), at(0.1)
        assert first[0].position != first[1].position - Vec2(-10.0, 3.0)
        assert first[0].position != second[0].position

    def test_carries_true_kinematics(self, rig):
        model = DetectionModel(position_noise=0.0)
        detections = model.detect(
            rig["front_120"], vstate(0), 0.0,
            {"a": (vstate(50, speed=17.5), SPEC)}, seed=0,
        )
        assert detections[0].true_speed == 17.5


class TestCounterKeyedDraws:
    """The order-independence contract of the detection draws."""

    def test_repeat_call_is_bit_identical(self, rig):
        model = DetectionModel(position_noise=0.5, miss_rate=0.3)
        args = (
            rig["front_120"], vstate(0), 1.5,
            {"a": (vstate(50), SPEC), "b": (vstate(40, 3.0), SPEC)},
        )
        first = model.detect(*args, seed=11)
        second = model.detect(*args, seed=11)
        assert first == second

    def test_draws_independent_of_candidate_set(self, rig):
        # Removing one actor must not shift another actor's draws — the
        # stateful-generator failure mode this scheme eliminates.
        model = DetectionModel(position_noise=0.5)
        both = model.detect(
            rig["front_120"], vstate(0), 1.5,
            {"a": (vstate(50), SPEC), "b": (vstate(40, 3.0), SPEC)}, seed=3,
        )
        alone = model.detect(
            rig["front_120"], vstate(0), 1.5,
            {"b": (vstate(40, 3.0), SPEC)}, seed=3,
        )
        b_in_both = next(d for d in both if d.actor_id == "b")
        assert alone == [b_in_both]

    def test_seed_and_camera_separate_streams(self, rig):
        model = DetectionModel(position_noise=0.5)
        actors = {"a": (vstate(30), SPEC)}
        base = model.detect(rig["front_120"], vstate(0), 0.5, actors, seed=0)
        other_seed = model.detect(
            rig["front_120"], vstate(0), 0.5, actors, seed=1
        )
        other_camera = model.detect(
            rig["front_60"], vstate(0), 0.5, actors, seed=0
        )
        assert base[0].position != other_seed[0].position
        assert base[0].position != other_camera[0].position


class TestBatchedFrames:
    """One instant's due cameras detect as one batch, bit for bit."""

    SCENE = {
        "lead": (vstate(25), SPEC),
        "hidden": (vstate(60), SPEC),
        "left_car": (vstate(3.0, 3.5), SPEC),
        "right_car": (vstate(-1.0, -3.5), SPEC),
        "far_left": (vstate(30.0, 7.0), SPEC),
        "behind": (vstate(-30.0), SPEC),
    }

    @pytest.mark.parametrize("occlusion", [True, False])
    def test_alone_equals_batched(self, rig, occlusion):
        model = DetectionModel(
            position_noise=0.5, miss_rate=0.3, occlusion=occlusion
        )
        cameras = rig.cameras
        for frame_index in range(20):
            time = 0.1 * frame_index
            batched = model.detect_frames(
                cameras, vstate(0), time, self.SCENE, seed=5
            )
            assert [frame.camera for frame in batched] == list(rig.names)
            for camera, frame in zip(cameras, batched):
                alone = model.detect(
                    camera, vstate(0), time, self.SCENE, seed=5
                )
                assert list(frame.detections) == alone, (camera.name, time)
            # Any subset of the due cameras draws the same values too.
            pair = model.detect_frames(
                cameras[1:4:2], vstate(0), time, self.SCENE, seed=5
            )
            assert pair == [batched[1], batched[3]]

    def test_each_camera_occludes_from_its_own_eye(self):
        # Two cameras 10 m apart: the blocker hides the target from one
        # eye only, so a batch must ray-cast each row from its camera.
        fov = AngularSector(0.0, math.radians(120.0), 100.0)
        cameras = [
            Camera("north", Frame2(Vec2(0.0, 5.0), 0.0), fov),
            Camera("south", Frame2(Vec2(0.0, -5.0), 0.0), fov),
        ]
        scene = {
            "blocker": (vstate(20.0, 5.0), SPEC),
            "target": (vstate(40.0, 5.0), SPEC),
        }
        model = DetectionModel(position_noise=0.0, occlusion=True)
        batched = model.detect_frames(cameras, vstate(0), 0.0, scene, 0)
        seen = [{d.actor_id for d in frame.detections} for frame in batched]
        assert seen == [{"blocker"}, {"blocker", "target"}]
        for camera, frame in zip(cameras, batched):
            alone = model.detect(camera, vstate(0), 0.0, scene, 0)
            assert list(frame.detections) == alone

    def test_in_view_is_fov_membership(self, rig):
        model = DetectionModel(position_noise=0.0, occlusion=True)
        frames = model.detect_frames(
            rig.cameras, vstate(0), 0.0, self.SCENE, seed=0
        )
        by_camera = {frame.camera: frame for frame in frames}
        front = by_camera["front_120"]
        # Occluded actors stay in view (the tracker still expects them).
        assert {"lead", "hidden"} <= front.in_view
        assert "hidden" not in {d.actor_id for d in front.detections}
        assert "behind" in by_camera["rear"].in_view
        for frame in frames:
            assert {d.actor_id for d in frame.detections} <= frame.in_view

    def test_shared_key_words(self, rig):
        model = DetectionModel(position_noise=0.5, miss_rate=0.2)
        words = KeyWords()
        with_memo = model.detect_frames(
            rig.cameras, vstate(0), 0.5, self.SCENE, seed=2, words=words
        )
        again = model.detect_frames(
            rig.cameras, vstate(0), 0.5, self.SCENE, seed=2, words=words
        )
        fresh = model.detect_frames(
            rig.cameras, vstate(0), 0.5, self.SCENE, seed=2
        )
        assert with_memo == again == fresh
        for value, word in words.items():
            assert word == stable_key(value)

    def test_no_actors_or_cameras(self, rig):
        model = DetectionModel()
        frames = model.detect_frames(rig.cameras, vstate(0), 0.0, {}, seed=0)
        assert [f.detections for f in frames] == [()] * len(rig)
        assert model.detect_frames((), vstate(0), 0.0, self.SCENE, 0) == []


class TestStackedGate:
    """The stacked FOV gate equals the scalar sector test, per sector shape.

    ``detect_frames`` gates every camera at once with per-row sector
    constants; each frame's ``in_view`` must still be exactly the actors
    ``AngularSector.contains_local`` admits in that camera's frame.
    """

    # The sector shapes of test_fov.py::TestBatchMembership: narrow,
    # wide, side-facing, rear-facing (wrapping pi), 359.99 degrees and a
    # full circle.
    SECTORS = [
        AngularSector(0.0, math.radians(60), 100.0),
        AngularSector(0.0, math.radians(120), 100.0),
        AngularSector(math.radians(90), math.radians(120), 100.0),
        AngularSector(math.pi, math.radians(120), 120.0),
        AngularSector(math.radians(-45), math.radians(359.99), 50.0),
        AngularSector(0.3, 2 * math.pi, 80.0),
    ]
    MOUNTS = [
        Frame2(Vec2(1.5, 0.0), 0.0),
        Frame2(Vec2(0.5, 0.9), math.radians(30)),
        Frame2(Vec2(0.5, -0.9), math.radians(-90)),
        Frame2(Vec2(-2.0, 0.0), math.radians(180)),
        Frame2(Vec2(0.0, 0.4), math.radians(45)),
        Frame2(Vec2(-1.0, -0.5), math.radians(-150)),
    ]
    EGO = VehicleState(Vec2(4.0, -3.0), 0.3, 10.0, 0.0)

    def _cameras(self):
        return [
            Camera(f"cam{index}", mount, sector)
            for index, (mount, sector) in enumerate(
                zip(self.MOUNTS, self.SECTORS)
            )
        ]

    def _points(self, cameras):
        # The batch-membership grid, then every sector's boundary points
        # (edges, range and the eye itself) placed through its camera.
        values = np.linspace(-130.0, 130.0, 27)
        points = [Vec2(float(x), float(y)) for x in values for y in values]
        for camera in cameras:
            frame = camera.world_frame(self.EGO)
            sector = camera.fov
            half = sector.opening_angle / 2.0
            bearings = [
                sector.center_bearing + side * (half + delta)
                for side in (-1.0, 1.0)
                for delta in (-math.radians(1e-3), 0.0, math.radians(1.0))
            ] + [sector.center_bearing]
            ranges = [
                sector.max_range * 0.5,
                sector.max_range - 1e-3,
                sector.max_range,
                sector.max_range + 1e-3,
            ]
            points += [
                frame.to_world(Vec2.from_polar(r, b))
                for b in bearings
                for r in ranges
            ]
            points.append(frame.origin)
        return points

    @pytest.mark.parametrize("occlusion", [True, False])
    def test_in_view_equals_scalar_membership(self, occlusion):
        cameras = self._cameras()
        points = self._points(cameras)
        model = DetectionModel(position_noise=0.0, occlusion=occlusion)
        in_view = {camera.name: set() for camera in cameras}
        # In-view membership is per actor, so chunks keep the occlusion
        # test's (rows, blockers) tables small.
        for lo in range(0, len(points), 64):
            scene = {
                f"p{index}": (VehicleState(point, 0.0, 0.0), SPEC)
                for index, point in enumerate(points[lo:lo + 64], start=lo)
            }
            for frame in model.detect_frames(
                cameras, self.EGO, 0.0, scene, seed=0
            ):
                in_view[frame.camera] |= frame.in_view
        for camera in cameras:
            frame = camera.world_frame(self.EGO)
            expected = {
                f"p{index}"
                for index, point in enumerate(points)
                if camera.fov.contains_local(frame.to_local(point))
            }
            assert in_view[camera.name] == expected, camera.fov


class TestMissRate:
    def test_miss_rate_one_impossible(self):
        with pytest.raises(ConfigurationError):
            DetectionModel(miss_rate=1.0)

    def test_high_miss_rate_drops_frames(self, rig):
        model = DetectionModel(miss_rate=0.9)
        hits = 0
        # Distinct capture times draw independently (one frozen instant
        # would repeat the same verdict 200 times).
        for frame in range(200):
            hits += len(
                model.detect(
                    rig["front_120"], vstate(0), 0.01 * frame,
                    {"a": (vstate(50), SPEC)}, seed=3,
                )
            )
        assert 2 <= hits <= 50


class TestOcclusion:
    def test_blocked_by_vehicle_between(self, rig):
        model = DetectionModel(position_noise=0.0, occlusion=True)
        actors = {
            "blocker": (vstate(25), SPEC),
            "hidden": (vstate(60), SPEC),
        }
        ids = {
            d.actor_id
            for d in model.detect(rig["front_120"], vstate(0), 0.0, actors, 0)
        }
        assert ids == {"blocker"}

    def test_adjacent_lane_not_blocking(self, rig):
        model = DetectionModel(position_noise=0.0, occlusion=True)
        actors = {
            "beside": (vstate(25, 3.5), SPEC),
            "visible": (vstate(60), SPEC),
        }
        ids = {
            d.actor_id
            for d in model.detect(rig["front_120"], vstate(0), 0.0, actors, 0)
        }
        assert ids == {"beside", "visible"}

    def test_occlusion_off_sees_through(self, rig):
        model = DetectionModel(position_noise=0.0, occlusion=False)
        actors = {
            "blocker": (vstate(25), SPEC),
            "hidden": (vstate(60), SPEC),
        }
        ids = {
            d.actor_id
            for d in model.detect(rig["front_120"], vstate(0), 0.0, actors, 0)
        }
        assert ids == {"blocker", "hidden"}

    def test_reveal_after_lateral_shift(self, rig):
        # The cut-out mechanism: once the blocker moves ~a lane over, the
        # obstacle behind it becomes visible.
        model = DetectionModel(position_noise=0.0, occlusion=True)
        actors = {
            "blocker": (vstate(25, 2.5), SPEC),
            "obstacle": (vstate(60, 0.0, speed=0.0), SPEC),
        }
        ids = {
            d.actor_id
            for d in model.detect(rig["front_120"], vstate(0), 0.0, actors, 0)
        }
        assert "obstacle" in ids


class TestValidation:
    def test_rejects_negative_noise(self):
        with pytest.raises(ConfigurationError):
            DetectionModel(position_noise=-0.1)
