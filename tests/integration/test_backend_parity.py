"""Scalar vs batched backend: identical output on real traces.

The acceptance bar of the batched engine: a whole
:class:`EvaluationSeries` — every camera estimate, every per-actor
latency, at every tick — must be *equal*, not approximately equal,
between the two backends, on real closed-loop traces including
multi-actor density variants and curved roads, with and without
counter-based perception noise. The online estimator gets the same
treatment over a perceived world model.
"""

import sys
from collections import Counter

import pytest

from repro import OfflineEvaluator, build_scenario
from repro.core.evaluator import presample_trace
from repro.dynamics.state import VehicleSpec
from repro.perception.noise import PerceptionNoise


def assert_series_identical(a, b):
    assert len(a.ticks) == len(b.ticks)
    for tick_a, tick_b in zip(a.ticks, b.ticks):
        assert tick_a.time == tick_b.time
        assert dict(tick_a.actor_latencies) == dict(tick_b.actor_latencies)
        assert dict(tick_a.camera_estimates) == dict(tick_b.camera_estimates)
        assert tick_a.ego_speed == tick_b.ego_speed
        assert tick_a.ego_accel == tick_b.ego_accel


def evaluate_both(name, stride=0.1, noise=None, **evaluator_kwargs):
    scenario = build_scenario(name, seed=0)
    trace = scenario.run(fpr=30.0)
    assert not trace.has_collision, name
    samples = presample_trace(trace, stride, noise=noise)
    series = {}
    for backend in ("scalar", "batched"):
        evaluator = OfflineEvaluator(
            road=scenario.road,
            stride=stride,
            backend=backend,
            noise=noise,
            **evaluator_kwargs,
        )
        series[backend] = evaluator.evaluate(trace, samples=samples)
    return series


@pytest.mark.slow
class TestOfflineParity:
    def test_cut_in(self):
        series = evaluate_both("cut_in")
        assert_series_identical(series["scalar"], series["batched"])

    def test_cut_out_multi_actor(self):
        series = evaluate_both("cut_out")
        assert_series_identical(series["scalar"], series["batched"])

    def test_curved_road(self):
        series = evaluate_both("challenging_cut_in_curved")
        assert_series_identical(series["scalar"], series["batched"])

    def test_density_variant(self):
        from repro.scenarios.catalog import density_sweep

        density_sweep(counts=(4,), families=("cut_in",))
        series = evaluate_both("cut_in_dense4")
        assert_series_identical(series["scalar"], series["batched"])
        # The variant genuinely loads the engine: queued actors must be
        # estimated, not gated out.
        per_tick = [
            len(t.actor_latencies) for t in series["batched"].ticks
        ]
        assert max(per_tick) >= 3


@pytest.mark.slow
class TestNoisyOfflineParity:
    """Counter-based perception noise on the arc: scalar == batched."""

    NOISE = PerceptionNoise(miss_rate=0.15, position_noise=0.3, seed=42)

    def test_curved_road(self):
        series = evaluate_both(
            "challenging_cut_in_curved", stride=0.25, noise=self.NOISE
        )
        assert_series_identical(series["scalar"], series["batched"])

    def test_curved_density_variant(self):
        from repro.scenarios.catalog import density_sweep

        density_sweep(counts=(4,), families=("challenging_cut_in_curved",))
        series = evaluate_both(
            "challenging_cut_in_curved_dense4", stride=0.25, noise=self.NOISE
        )
        assert_series_identical(series["scalar"], series["batched"])


@pytest.mark.slow
class TestOnlineParity:
    @pytest.mark.parametrize(
        "name, fpr, prioritized",
        # (scenario, FPR, work prioritization) of the hooked runs: a
        # curved road, four actors, and camera rates retuned from the
        # estimates every tick.
        [
            ("cut_in", 30.0, False),
            ("challenging_cut_in_curved", 30.0, False),
            ("cut_in_dense4", 30.0, False),
            ("cut_out_fast", 12.0, True),
        ],
        ids=["cut_in", "curved", "dense4", "prioritized"],
    )
    def test_online_tick_identical(
        self, name, fpr, prioritized, columns_equal
    ):
        from repro.core.aggregation import PercentileAggregator
        from repro.core.online import OnlineEstimator
        from repro.core.parameters import ZhuyiParams
        from repro.prediction.maneuver import ManeuverPredictor
        from repro.system import (
            SafetyChecker,
            WorkPrioritizer,
            ZhuyiOnlineSystem,
        )

        runs = {}
        for backend in ("scalar", "batched"):
            scenario = build_scenario(name, seed=0)
            system = ZhuyiOnlineSystem(
                estimator=OnlineEstimator(
                    params=ZhuyiParams(),
                    predictor=ManeuverPredictor(
                        road=scenario.road,
                        target_lane=scenario.spec.ego_lane,
                    ),
                    road=scenario.road,
                    aggregator=PercentileAggregator(90.0),
                    backend=backend,
                ),
                checker=SafetyChecker(),
                prioritizer=(
                    WorkPrioritizer(
                        total_budget=36.0,
                        cameras=("front_120", "left", "right"),
                    )
                    if prioritized
                    else None
                ),
                period=0.2,
            )
            trace = scenario.run(fpr=fpr, hooks=[system])
            runs[backend] = (system.records, trace)

        (scalar, scalar_trace), (batched, batched_trace) = runs.values()
        assert len(scalar) == len(batched)
        assert any(record.tick.actor_latencies for record in scalar)
        for a, b in zip(scalar, batched):
            assert a.tick.time == b.tick.time
            assert dict(a.tick.actor_latencies) == dict(
                b.tick.actor_latencies
            )
            assert dict(a.tick.camera_estimates) == dict(
                b.tick.camera_estimates
            )
            assert a.verdict == b.verdict
            assert a.applied_rates == b.applied_rates
        if prioritized:
            assert any(record.applied_rates for record in scalar)
        assert columns_equal(scalar_trace, batched_trace)


class TestLiveTickRunsTheReplayProgram:
    """A vectorized live tick is the one-tick case of the replay."""

    @pytest.mark.parametrize("backend", ["batched", "crosstrace"])
    def test_vectorized_estimate_runs_the_row_program(
        self, backend, monkeypatch, straight_road
    ):
        from repro.core import threat as threat_module
        from repro.core.engine import LatencyEngine
        from repro.core.online import OnlineEstimator
        from repro.core.parameters import ZhuyiParams
        from repro.core.threat import ThreatAssessor
        from repro.dynamics.state import VehicleState
        from repro.geometry.vec import Vec2
        from repro.perception.world_model import PerceivedActor, WorldModel
        from repro.prediction.maneuver import ManeuverPredictor

        lane = straight_road.lane_offset(1)
        ego = VehicleState(
            position=Vec2(100.0, lane), heading=0.0, speed=20.0, accel=0.0
        )
        world = WorldModel()
        world.upsert(
            PerceivedActor(
                actor_id="lead",
                position=Vec2(160.0, lane),
                velocity=Vec2(15.0, 0.0),
                heading=0.0,
                speed=15.0,
                accel=0.0,
                timestamp=3.0,
            )
        )

        def estimator(backend):
            return OnlineEstimator(
                params=ZhuyiParams(),
                predictor=ManeuverPredictor(road=straight_road, target_lane=1),
                road=straight_road,
                backend=backend,
            )

        def tick(backend):
            return estimator(backend).estimate(
                now=3.0,
                ego_state=ego,
                ego_spec=VehicleSpec(),
                world_model=world,
                l0=1.0 / 30.0,
            )

        expected = tick("scalar")
        # A binding latency: the lead is a threat, and not hopeless.
        assert 0.0 < expected.actor_latencies["lead"] < 1.0

        def forbidden(name):
            def call(*args, **kwargs):
                raise AssertionError(f"a {backend} estimate called {name}")

            return call

        monkeypatch.setattr(ManeuverPredictor, "predict", forbidden("predict"))
        monkeypatch.setattr(ThreatAssessor, "assess", forbidden("assess"))
        for module in list(sys.modules.values()):
            if (
                getattr(module, "__name__", "").startswith("repro.")
                and getattr(module, "sample_grid", None)
                is threat_module.sample_grid
            ):
                monkeypatch.setattr(
                    module, "sample_grid", forbidden("sample_grid")
                )
        calls = Counter()
        for owner, method in (
            (ManeuverPredictor, "predict_trace"),
            (LatencyEngine, "solve_rows"),
        ):

            def counted(*args, _original=getattr(owner, method), _name=method,
                        **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, method, counted)

        result = tick(backend)
        assert calls == {"predict_trace": 1, "solve_rows": 1}
        assert result == expected

    def test_one_corridor_layout_per_tick(self, straight_road, call_counter):
        from repro.core.engine import LatencyEngine
        from repro.core.online import OnlineEstimator
        from repro.core.parameters import ZhuyiParams
        from repro.core.threat import CorridorLayout, ThreatAssessor
        from repro.dynamics.state import VehicleState
        from repro.geometry.vec import Vec2
        from repro.perception.world_model import PerceivedActor, WorldModel
        from repro.prediction.maneuver import ManeuverPredictor

        lane = straight_road.lane_offset(1)
        estimators = {
            backend: OnlineEstimator(
                params=ZhuyiParams(),
                predictor=ManeuverPredictor(road=straight_road, target_lane=1),
                road=straight_road,
                backend=backend,
            )
            for backend in ("scalar", "batched")
        }

        def tick(backend, now):
            # A lead in the ego's lane and a car in the next lane: each
            # has several gated futures, so a tick samples many sources.
            world = WorldModel()
            for actor_id, x, y in (
                ("lead", 160.0, lane),
                ("side", 130.0, straight_road.lane_offset(2)),
            ):
                world.upsert(
                    PerceivedActor(
                        actor_id=actor_id,
                        position=Vec2(x + 15.0 * now, y),
                        velocity=Vec2(15.0, 0.0),
                        heading=0.0,
                        speed=15.0,
                        accel=0.0,
                        timestamp=now,
                    )
                )
            return estimators[backend].estimate(
                now=now,
                ego_state=VehicleState(
                    position=Vec2(100.0 + 20.0 * now, lane),
                    heading=0.0,
                    speed=20.0,
                    accel=0.0,
                ),
                ego_spec=VehicleSpec(),
                world_model=world,
                l0=1.0 / 30.0,
            )

        nows = (3.0, 3.2, 3.4)
        expected = [tick("scalar", now) for now in nows]
        call_counter.watch(CorridorLayout, "of")
        call_counter.watch(ThreatAssessor, "sample_threat_futures")
        call_counter.watch(LatencyEngine, "solve_rows")
        for now, want in zip(nows, expected):
            call_counter.clear()
            assert tick("batched", now) == want
            assert call_counter["solve_rows"] == 1
            assert call_counter["of"] == 1
            assert call_counter["sample_threat_futures"] > 2


class TestCrosstraceRunsTheEngine:
    """``crosstrace`` names the engine, never the scalar reference.

    The online estimator once accepted the name and quietly ran the
    scalar loops: equal output, several times slower.
    """

    def test_online_estimator(self, cut_in_trace_30):
        from repro.core.online import OnlineEstimator
        from repro.core.parameters import ZhuyiParams
        from repro.prediction.maneuver import ManeuverPredictor

        scenario = build_scenario("cut_in", seed=0)
        series = {}
        for backend in ("batched", "crosstrace"):
            estimator = OnlineEstimator(
                params=ZhuyiParams(),
                predictor=ManeuverPredictor(
                    road=scenario.road, target_lane=scenario.spec.ego_lane
                ),
                road=scenario.road,
                backend=backend,
            )
            assert estimator._engine is not None, backend
            series[backend] = estimator.replay(cut_in_trace_30, period=0.5)
        assert_series_identical(series["batched"], series["crosstrace"])
