"""Trace-level perception vs per-tick perception: identical output.

The acceptance bar of the batched perception layer, in the style of
``test_backend_parity.py``: across every catalog scenario, the
trace-level visibility tables must reproduce the per-tick
``visible_actors`` groupings exactly; the batched evaluator backend
(engine kernel + visibility tables + composite Frenet corridor) must
produce an :class:`EvaluationSeries` *equal* — not approximately equal —
to the scalar per-tick reference, down to the Table 1 summaries; the
online estimator's replay path gets the same treatment; and the
vectorized occlusion mask must agree with the scalar segment/box loop.
"""

import numpy as np
import pytest

from repro import OfflineEvaluator, build_scenario
from repro.core.evaluator import presample_trace
from repro.scenarios.catalog import SCENARIO_NAMES, density_sweep


def build_trace(name, seed=0):
    scenario = build_scenario(name, seed=seed)
    trace = scenario.run(fpr=30.0)
    assert not trace.has_collision, name
    return scenario, trace


def assert_series_identical(a, b):
    assert len(a.ticks) == len(b.ticks)
    for tick_a, tick_b in zip(a.ticks, b.ticks):
        assert tick_a.time == tick_b.time
        assert dict(tick_a.actor_latencies) == dict(tick_b.actor_latencies)
        assert dict(tick_a.camera_estimates) == dict(tick_b.camera_estimates)
        assert tick_a.ego_speed == tick_b.ego_speed
        assert tick_a.ego_accel == tick_b.ego_accel


@pytest.mark.slow
class TestVisibilityTraceParity:
    """visible_actors_trace == a per-tick visible_actors loop."""

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_catalog_scenario(self, name):
        scenario, trace = build_trace(name)
        samples = presample_trace(trace, 0.25)
        evaluator = OfflineEvaluator(road=scenario.road, stride=0.25)
        rig = evaluator.rig
        batched = rig.visible_actors_trace(
            samples.ego_states, samples.actor_positions
        )
        assert len(batched) == len(samples.times)
        for i, ego_state in enumerate(samples.ego_states):
            per_tick = rig.visible_actors(
                ego_state,
                {
                    actor_id: states[i].position
                    for actor_id, states in samples.actor_states.items()
                },
            )
            assert batched[i] == per_tick, (name, i)

    def test_membership_tables_align_with_groupings(self):
        scenario, trace = build_trace("cut_out")
        samples = presample_trace(trace, 0.5)
        rig = OfflineEvaluator(road=scenario.road, stride=0.5).rig
        tables = rig.visibility_trace(
            samples.ego_states, samples.actor_positions
        )
        groupings = rig.visible_actors_trace(
            samples.ego_states, samples.actor_positions
        )
        ids = list(samples.actor_positions)
        for camera, table in tables.items():
            assert table.shape == (len(samples.times), len(ids))
            for i in range(len(samples.times)):
                assert groupings[i][camera] == [
                    ids[j] for j in np.flatnonzero(table[i])
                ]


@pytest.mark.slow
class TestEvaluatorBackendParity:
    """Scalar vs batched evaluator across the whole catalog."""

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_catalog_scenario(self, name):
        scenario, trace = build_trace(name)
        samples = presample_trace(trace, 0.25)
        series = {}
        for backend in ("scalar", "batched"):
            evaluator = OfflineEvaluator(
                road=scenario.road, stride=0.25, backend=backend
            )
            series[backend] = evaluator.evaluate(trace, samples=samples)
        assert_series_identical(series["scalar"], series["batched"])
        # The Table 1 summaries derived from the series agree exactly.
        assert series["scalar"].max_fpr() == series["batched"].max_fpr()
        assert (
            series["scalar"].max_total_fpr()
            == series["batched"].max_total_fpr()
        )
        assert (
            series["scalar"].fraction_of_provision()
            == series["batched"].fraction_of_provision()
        )

    def test_curved_dense_variant(self):
        density_sweep(counts=(4,), families=("challenging_cut_in_curved",))
        scenario, trace = build_trace("challenging_cut_in_curved_dense4")
        samples = presample_trace(trace, 0.1)
        series = {}
        for backend in ("scalar", "batched"):
            evaluator = OfflineEvaluator(
                road=scenario.road, stride=0.1, backend=backend
            )
            series[backend] = evaluator.evaluate(trace, samples=samples)
        assert_series_identical(series["scalar"], series["batched"])
        # The queued actors genuinely load the batched path.
        per_tick = [len(t.actor_latencies) for t in series["batched"].ticks]
        assert max(per_tick) >= 3


@pytest.mark.slow
class TestReplayParity:
    """OnlineEstimator.replay: batched == scalar == per-tick estimate."""

    def _estimator(self, scenario, backend):
        from repro.core.online import OnlineEstimator
        from repro.core.parameters import ZhuyiParams
        from repro.prediction.maneuver import ManeuverPredictor

        return OnlineEstimator(
            params=ZhuyiParams(),
            predictor=ManeuverPredictor(
                road=scenario.road, target_lane=scenario.spec.ego_lane
            ),
            road=scenario.road,
            backend=backend,
        )

    def test_replay_backend_parity_curved(self):
        scenario, trace = build_trace("challenging_cut_in_curved")
        series = {
            backend: self._estimator(scenario, backend).replay(
                trace, period=0.25
            )
            for backend in ("scalar", "batched")
        }
        assert_series_identical(series["scalar"], series["batched"])

    def test_replay_equals_estimate_loop(self):
        from repro.perception.world_model import PerceivedActor, WorldModel

        scenario, trace = build_trace("cut_in")
        estimator = self._estimator(scenario, "batched")
        series = estimator.replay(trace, period=0.5)

        reference = self._estimator(scenario, "batched")
        times = np.array([tick.time for tick in series.ticks])
        ego_states = trace.ego_trajectory().sample_states(times)
        actor_states = {
            actor_id: trace.actor_trajectory(actor_id).sample_states(times)
            for actor_id in trace.actor_ids()
        }
        l0 = 1.0 / trace.nominal_fpr
        for i, tick in enumerate(series.ticks):
            world = WorldModel()
            for actor_id, states in actor_states.items():
                state = states[i]
                world.upsert(
                    PerceivedActor(
                        actor_id=actor_id,
                        position=state.position,
                        velocity=state.velocity(),
                        heading=state.heading,
                        speed=state.speed,
                        accel=state.accel,
                        timestamp=float(times[i]),
                    )
                )
            expected = reference.estimate(
                now=float(times[i]),
                ego_state=ego_states[i],
                ego_spec=trace.ego_spec,
                world_model=world,
                l0=l0,
            )
            assert tick.time == expected.time
            assert dict(tick.actor_latencies) == dict(
                expected.actor_latencies
            )
            assert dict(tick.camera_estimates) == dict(
                expected.camera_estimates
            )


class TestOcclusionMaskParity:
    """The vectorized slab test == the scalar segment/box loop."""

    def test_against_scalar_segments(self):
        from repro.dynamics.state import VehicleSpec, VehicleState
        from repro.geometry.boxes import segment_intersects_box
        from repro.geometry.vec import Vec2
        from repro.perception.detection import (
            _TARGET_CLEARANCE,
            occlusion_mask,
        )

        rng = np.random.default_rng(7)
        for _ in range(50):
            actors = [
                (
                    VehicleState(
                        position=Vec2(*rng.uniform(-40.0, 40.0, 2)),
                        heading=float(rng.uniform(-np.pi, np.pi)),
                        speed=1.0,
                    ),
                    VehicleSpec(),
                )
                for _ in range(5)
            ]
            # Multi-eye rows, as one instant's due cameras produce them:
            # every (eye, target) pair in one call.
            eyes = [Vec2(*rng.uniform(-5.0, 5.0, 2)) for _ in range(3)]
            rows = [
                (eye, index) for eye in eyes for index in range(len(actors))
            ]
            batched = occlusion_mask(
                np.array([eye.x for eye, _ in rows]),
                np.array([eye.y for eye, _ in rows]),
                np.array([index for _, index in rows]),
                actors,
            )
            assert batched.shape == (len(rows),)
            for row, (eye, target_index) in enumerate(rows):
                target = actors[target_index][0].position
                ray = target - eye
                distance = np.sqrt(ray.x * ray.x + ray.y * ray.y)
                if distance <= _TARGET_CLEARANCE:
                    expected = False
                else:
                    end = eye + ray * (
                        (distance - _TARGET_CLEARANCE) / distance
                    )
                    expected = any(
                        segment_intersects_box(
                            eye, end, state.footprint(spec)
                        )
                        for blocker_index, (state, spec) in enumerate(actors)
                        if blocker_index != target_index
                    )
                assert bool(batched[row]) == expected

    def test_rows_independent_of_batch(self):
        # A row's verdict does not depend on which other rows share the
        # call (each row alone == the same row inside the full batch).
        from repro.dynamics.state import VehicleSpec, VehicleState
        from repro.geometry.vec import Vec2
        from repro.perception.detection import occlusion_mask

        actors = [
            (VehicleState(Vec2(x, y), 0.0, 10.0), VehicleSpec())
            for x, y in ((25.0, 0.0), (60.0, 0.0), (40.0, 3.5), (-30.0, 0.0))
        ]
        eye_x = np.array([1.5, 1.5, 0.5, -2.0, 0.5])
        eye_y = np.array([0.0, 0.0, 0.9, 0.0, -0.9])
        targets = np.array([1, 2, 2, 3, 1])
        whole = occlusion_mask(eye_x, eye_y, targets, actors)
        assert whole[0]  # the lead hides the car 60 m ahead
        for row in range(len(targets)):
            alone = occlusion_mask(
                eye_x[row:row + 1],
                eye_y[row:row + 1],
                targets[row:row + 1],
                actors,
            )
            assert alone.tolist() == [whole[row]]
        empty = occlusion_mask(
            np.empty(0), np.empty(0), np.empty(0, dtype=int), actors
        )
        assert empty.shape == (0,)
