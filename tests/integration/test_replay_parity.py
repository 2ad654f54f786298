"""Whole-trace replay: the batched array program vs the per-tick loop.

The acceptance bar of the online batch path: across every catalog
scenario — and the dense multi-actor variants that actually load the
(tick x actor x hypothesis) row batch — ``OnlineEstimator.replay`` with
``backend="batched"`` must produce an :class:`EvaluationSeries` *equal*,
not approximately equal, to the scalar per-tick reference, with the
multi-hypothesis :class:`ManeuverPredictor` supplying several futures
per actor per tick (the earlier parity suite only replayed
single-future defaults). Aggregator choices and the perception-margin
extension ride the same contract.
"""

import numpy as np
import pytest

from repro import build_scenario
from repro.core.aggregation import (
    MaxAggregator,
    MeanAggregator,
    PercentileAggregator,
)
from repro.core.online import OnlineEstimator
from repro.core.parameters import ZhuyiParams
from repro.perception.noise import PerceptionNoise
from repro.prediction.base import PredictedTrajectory
from repro.prediction.constant_accel import ConstantAccelerationPredictor
from repro.prediction.constant_velocity import ConstantVelocityPredictor
from repro.prediction.maneuver import ManeuverPredictor
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


def maneuver_estimator(scenario, backend, **kwargs):
    return OnlineEstimator(
        params=kwargs.pop("params", ZhuyiParams()),
        predictor=ManeuverPredictor(
            road=scenario.road, target_lane=scenario.spec.ego_lane
        ),
        road=scenario.road,
        backend=backend,
        **kwargs,
    )


def replay_both(scenario, trace, period=0.25, **kwargs):
    return {
        backend: maneuver_estimator(scenario, backend, **kwargs).replay(
            trace, period=period
        )
        for backend in ("scalar", "batched")
    }


@pytest.mark.slow
class TestCatalogReplayParity:
    """Scalar vs batched replay across the whole catalog."""

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_catalog_scenario(self, name):
        scenario, trace = build_trace(name)
        series = replay_both(scenario, trace)
        assert_series_identical(series["scalar"], series["batched"])
        # The summaries the Figure 7 analysis reads agree exactly.
        assert series["scalar"].max_fpr() == series["batched"].max_fpr()
        assert (
            series["scalar"].max_total_fpr()
            == series["batched"].max_total_fpr()
        )

    def test_dense_multi_actor_variants(self):
        density_sweep()
        for name in ("cut_in_dense4", "challenging_cut_in_curved_dense4"):
            scenario, trace = build_trace(name)
            series = replay_both(scenario, trace)
            assert_series_identical(series["scalar"], series["batched"])
            # The queued actors genuinely load the row batch.
            per_tick = [
                len(t.actor_latencies) for t in series["batched"].ticks
            ]
            assert max(per_tick) >= 3, name


@pytest.mark.slow
class TestReplayConfigurations:
    """The parity contract holds across estimator configurations."""

    def test_aggregators(self):
        scenario, trace = build_trace("cut_in")
        for aggregator in (
            MaxAggregator(),
            MeanAggregator(),
            PercentileAggregator(90.0),
        ):
            series = replay_both(
                scenario, trace, period=0.5, aggregator=aggregator
            )
            assert_series_identical(series["scalar"], series["batched"])

    def test_gap_margin(self):
        scenario, trace = build_trace("cut_out")
        series = replay_both(scenario, trace, period=0.5, gap_margin=0.75)
        assert_series_identical(series["scalar"], series["batched"])

    def test_single_future_predictor(self):
        scenario, trace = build_trace("vehicle_following")
        series = {}
        for backend in ("scalar", "batched"):
            estimator = OnlineEstimator(
                params=ZhuyiParams(),
                predictor=ConstantAccelerationPredictor(),
                road=scenario.road,
                backend=backend,
            )
            series[backend] = estimator.replay(trace, period=0.5)
        assert_series_identical(series["scalar"], series["batched"])

    def test_predictor_without_batch_protocol_falls_back(self):
        scenario, trace = build_trace("cut_in")

        class LoopOnly:
            """A per-tick predictor: served by the stacked default."""

            def __init__(self, inner):
                self.inner = inner

            def predict(self, actor, now, horizon):
                return self.inner.predict(actor, now, horizon)

        series = {}
        for backend in ("scalar", "batched"):
            estimator = OnlineEstimator(
                params=ZhuyiParams(),
                predictor=LoopOnly(
                    ManeuverPredictor(
                        road=scenario.road,
                        target_lane=scenario.spec.ego_lane,
                    )
                ),
                road=scenario.road,
                backend=backend,
            )
            series[backend] = estimator.replay(trace, period=0.5)
        assert_series_identical(series["scalar"], series["batched"])

    def test_unbatchable_predictor_falls_back_per_tick(self):
        scenario, trace = build_trace("cut_in")

        class Ragged:
            """Alternating labels: the via-loop stacking must refuse."""

            def __init__(self, inner):
                self.inner = inner
                self.calls = 0

            def predict(self, actor, now, horizon):
                self.calls += 1
                predictions = self.inner.predict(actor, now, horizon)
                if self.calls % 2:
                    predictions = [
                        PredictedTrajectory(
                            p.trajectory, p.probability, label=p.label + "~"
                        )
                        for p in predictions
                    ]
                return predictions

        series = {}
        for backend in ("scalar", "batched"):
            estimator = OnlineEstimator(
                params=ZhuyiParams(),
                predictor=Ragged(
                    ManeuverPredictor(
                        road=scenario.road,
                        target_lane=scenario.spec.ego_lane,
                    )
                ),
                road=scenario.road,
                backend=backend,
            )
            series[backend] = estimator.replay(trace, period=0.5)
        assert_series_identical(series["scalar"], series["batched"])

    def test_predictor_with_no_futures_for_an_actor(self):
        # A predictor may deem an actor irrelevant and emit no futures
        # at all; both backends must treat it as not-a-threat rather
        # than crash or disagree.
        scenario, trace = build_trace("cut_in")

        class Selective:
            def __init__(self, inner):
                self.inner = inner

            def predict(self, actor, now, horizon):
                if actor.actor_id != "cutter":
                    return []
                return self.inner.predict(actor, now, horizon)

        assert "cutter" in trace.actor_ids()
        series = {}
        for backend in ("scalar", "batched"):
            estimator = OnlineEstimator(
                params=ZhuyiParams(),
                predictor=Selective(
                    ManeuverPredictor(
                        road=scenario.road,
                        target_lane=scenario.spec.ego_lane,
                    )
                ),
                road=scenario.road,
                backend=backend,
            )
            series[backend] = estimator.replay(trace, period=0.5)
        assert_series_identical(series["scalar"], series["batched"])

    def test_replay_grid_matches_offline_stride(self):
        # Replay ticks land on the presampler's closed-form grid.
        scenario, trace = build_trace("cut_in")
        series = maneuver_estimator(scenario, "batched").replay(
            trace, period=0.25
        )
        times = np.array([tick.time for tick in series.ticks])
        start = trace.steps[0].time
        assert np.array_equal(times, start + 0.25 * np.arange(times.size))


class TestRoadlessReplay:
    """Roadless lateral gating stays on the whole-trace array program."""

    def test_matches_scalar_without_per_tick_fallback(
        self, monkeypatch, cut_out_trace_30
    ):
        def estimator(backend):
            return OnlineEstimator(
                params=ZhuyiParams(),
                predictor=ConstantVelocityPredictor(),
                road=None,
                backend=backend,
            )

        scalar = estimator("scalar").replay(cut_out_trace_30, period=0.5)

        def per_tick(*args, **kwargs):
            raise AssertionError("the batched replay fell back per tick")

        batched = estimator("batched")
        monkeypatch.setattr(batched, "estimate", per_tick)
        series = batched.replay(cut_out_trace_30, period=0.5)
        assert_series_identical(scalar, series)
        assert any(tick.actor_latencies for tick in series.ticks)


@pytest.mark.slow
class TestNoisyReplayParity:
    """Stochastic perception rides the same exact-equality contract.

    With counter-based draws (keyed on timestamp bits and actor id, see
    ``repro/core/rng.py``) the scalar loop and the batched array program
    sample identical misses and position perturbations, so noisy replay
    parity is *equality*, not statistics.
    """

    NOISE = PerceptionNoise(miss_rate=0.15, position_noise=0.3, seed=42)

    def test_noisy_scalar_batched_identical(self):
        scenario, trace = build_trace("cut_in", seed=1)
        series = replay_both(scenario, trace, noise=self.NOISE)
        assert_series_identical(series["scalar"], series["batched"])

    def test_noisy_dense_variant_identical(self):
        density_sweep()
        scenario, trace = build_trace("cut_in_dense4")
        series = replay_both(scenario, trace, noise=self.NOISE)
        assert_series_identical(series["scalar"], series["batched"])
        per_tick = [len(t.actor_latencies) for t in series["batched"].ticks]
        assert max(per_tick) >= 3

    def test_miss_only_and_noise_only_channels(self):
        scenario, trace = build_trace("cut_out")
        for noise in (
            PerceptionNoise(miss_rate=0.3, seed=7),
            PerceptionNoise(position_noise=0.5, seed=7),
        ):
            series = replay_both(scenario, trace, period=0.5, noise=noise)
            assert_series_identical(series["scalar"], series["batched"])

    def test_noise_actually_perturbs(self):
        # Guard against a silently disabled noise path: strong miss
        # sampling must change what the estimator sees somewhere.
        scenario, trace = build_trace("cut_in")
        clean = maneuver_estimator(scenario, "batched").replay(
            trace, period=0.25
        )
        noisy = maneuver_estimator(
            scenario,
            "batched",
            noise=PerceptionNoise(miss_rate=0.4, position_noise=0.75, seed=7),
        ).replay(trace, period=0.25)
        assert any(
            dict(a.actor_latencies) != dict(b.actor_latencies)
            for a, b in zip(clean.ticks, noisy.ticks)
        )
