"""Scalar vs batched backend: identical output on real traces.

The acceptance bar of the batched engine: a whole
:class:`EvaluationSeries` — every camera estimate, every per-actor
latency, at every tick — must be *equal*, not approximately equal,
between the two backends, on real closed-loop traces including
multi-actor density variants and curved roads. The online estimator
gets the same treatment over a perceived world model.
"""

import pytest

from repro import OfflineEvaluator, build_scenario
from repro.core.evaluator import presample_trace


def assert_series_identical(a, b):
    assert len(a.ticks) == len(b.ticks)
    for tick_a, tick_b in zip(a.ticks, b.ticks):
        assert tick_a.time == tick_b.time
        assert dict(tick_a.actor_latencies) == dict(tick_b.actor_latencies)
        assert dict(tick_a.camera_estimates) == dict(tick_b.camera_estimates)


def evaluate_both(name, stride=0.1, **evaluator_kwargs):
    scenario = build_scenario(name, seed=0)
    trace = scenario.run(fpr=30.0)
    assert not trace.has_collision, name
    samples = presample_trace(trace, stride)
    series = {}
    for backend in ("scalar", "batched"):
        evaluator = OfflineEvaluator(
            road=scenario.road,
            stride=stride,
            backend=backend,
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
class TestOnlineParity:
    def test_online_tick_identical(self):
        from repro.core.aggregation import PercentileAggregator
        from repro.core.online import OnlineEstimator
        from repro.core.parameters import ZhuyiParams
        from repro.prediction.maneuver import ManeuverPredictor
        from repro.system import SafetyChecker, ZhuyiOnlineSystem

        ticks = {}
        for backend in ("scalar", "batched"):
            scenario = build_scenario("cut_in", seed=0)
            params = ZhuyiParams()
            system = ZhuyiOnlineSystem(
                estimator=OnlineEstimator(
                    params=params,
                    predictor=ManeuverPredictor(
                        road=scenario.road,
                        target_lane=scenario.spec.ego_lane,
                    ),
                    road=scenario.road,
                    aggregator=PercentileAggregator(90.0),
                    backend=backend,
                ),
                checker=SafetyChecker(),
                period=0.2,
            )
            scenario.run(fpr=30.0, hooks=[system])
            ticks[backend] = list(system.ticks())

        assert len(ticks["scalar"]) == len(ticks["batched"])
        for a, b in zip(ticks["scalar"], ticks["batched"]):
            assert a.time == b.time
            assert dict(a.actor_latencies) == dict(b.actor_latencies)
            assert dict(a.camera_estimates) == dict(b.camera_estimates)


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
