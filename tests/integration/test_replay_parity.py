"""Whole-trace replay: the batched array program vs the per-tick loop.

The acceptance bar of the online batch path: across every catalog
scenario — and the dense multi-actor variants that actually load the
(tick x actor x hypothesis) row batch — ``OnlineEstimator.replay`` with
``backend="batched"`` must produce an :class:`EvaluationSeries` *equal*,
not approximately equal, to the scalar per-tick reference, with the
multi-hypothesis :class:`ManeuverPredictor` supplying several futures
per actor per tick (the earlier parity suite only replayed
single-future defaults). Aggregator choices ride the same contract.
Replay rows solve in the offline block's bounded, prefix-trimmed
windows, and a vectorized replay that cannot run vectorized raises
instead of looping per tick.
"""

import numpy as np
import pytest

import repro.core.evaluator as evaluator_module
from repro import build_scenario
from repro.core.aggregation import (
    MaxAggregator,
    MeanAggregator,
    PercentileAggregator,
)
from repro.core.engine import LatencyEngine
from repro.core.evaluator import presample_trace
from repro.core.online import OnlineEstimator
from repro.core.parameters import ZhuyiParams
from repro.core.threat import CorridorLayout, ThreatAssessor
from repro.errors import EstimationError
from repro.perception.noise import PerceptionNoise
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
        assert tick_a.ego_speed == tick_b.ego_speed
        assert tick_a.ego_accel == tick_b.ego_accel


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

            def predict_trace(self, actors, nows, horizon):
                if actors[0].actor_id != "cutter":
                    return []
                return self.inner.predict_trace(actors, nows, horizon)

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


class TestReplayWindows:
    """Replay rows run through the offline block's windowed row solver."""

    @pytest.fixture(scope="class")
    def dense(self):
        """A dense maneuver replay's trace and its scalar reference."""
        density_sweep()
        scenario, trace = build_trace("cut_in_dense4")
        scalar = maneuver_estimator(scenario, "scalar").replay(
            trace, period=0.5
        )
        return scenario, trace, scalar

    def test_one_tick_windows_match_scalar(self, monkeypatch, dense):
        scenario, trace, scalar = dense
        # A budget below one tick's rows: every window holds one tick.
        monkeypatch.setattr(evaluator_module, "_ROW_ELEMENTS", 1)
        windows = []
        solve = LatencyEngine.solve_rows

        def spy_solve(self, grid, tick_indices, *args, **kwargs):
            windows.append(set(np.asarray(tick_indices).tolist()))
            return solve(self, grid, tick_indices, *args, **kwargs)

        monkeypatch.setattr(LatencyEngine, "solve_rows", spy_solve)
        batched = maneuver_estimator(scenario, "batched").replay(
            trace, period=0.5
        )
        assert_series_identical(scalar, batched)
        assert len(windows) > 1
        assert all(len(ticks) == 1 for ticks in windows)

    def test_one_corridor_layout_per_window(
        self, monkeypatch, dense, call_counter
    ):
        scenario, trace, scalar = dense
        # Windows of a few ticks, each sampling every gated (actor,
        # hypothesis) source on one layout.
        monkeypatch.setattr(evaluator_module, "_ROW_ELEMENTS", 40_000)
        call_counter.watch(CorridorLayout, "of")
        call_counter.watch(ThreatAssessor, "sample_threat_futures")
        call_counter.watch(LatencyEngine, "solve_rows")
        batched = maneuver_estimator(scenario, "batched").replay(
            trace, period=0.5
        )
        assert_series_identical(scalar, batched)
        windows = call_counter["solve_rows"]
        assert windows > 1
        assert call_counter["of"] == windows
        assert call_counter["sample_threat_futures"] > 2 * windows

    def test_windows_carry_their_readable_prefix(self, monkeypatch, dense):
        scenario, trace, scalar = dense
        # Windows of a few ticks each.
        monkeypatch.setattr(evaluator_module, "_ROW_ELEMENTS", 40_000)
        pending: list[int] = []
        windows = []
        sample = ThreatAssessor.sample_threat_futures
        solve = LatencyEngine.solve_rows

        def spy_sample(
            self, ego_states, ego_spec, futures, spec, t0s, rel_times,
            **kwargs,
        ):
            pending.append(len(rel_times))
            return sample(
                self, ego_states, ego_spec, futures, spec, t0s, rel_times,
                **kwargs,
            )

        def spy_solve(self, grid, tick_indices, *args, **kwargs):
            windows.append((grid, np.array(tick_indices), list(pending)))
            pending.clear()
            return solve(self, grid, tick_indices, *args, **kwargs)

        monkeypatch.setattr(
            ThreatAssessor, "sample_threat_futures", spy_sample
        )
        monkeypatch.setattr(LatencyEngine, "solve_rows", spy_solve)
        batched = maneuver_estimator(scenario, "batched").replay(
            trace, period=0.5
        )
        assert_series_identical(scalar, batched)

        assert not pending
        assert len(windows) > 1
        trimmed = 0
        for grid, ticks, sampled in windows:
            n_times = grid.times.size
            prefix = min(int(grid.lengths[ticks].max()), n_times)
            assert sampled
            assert set(sampled) == {prefix + grid.reactions.size}
            trimmed += prefix < n_times
        assert trimmed, "some window must skip the master grid's tail"


class TestNoSilentPerTickReplay:
    """A vectorized estimator never degrades to the per-tick loop.

    One lacking ``predict_trace`` or ``aggregate_rows`` is refused when
    it is built, before any live tick or replay could run.
    """

    class LoopOnly:
        """A per-tick predictor without ``predict_trace``."""

        def __init__(self, inner):
            self.inner = inner

        def predict(self, actor, now, horizon):
            return self.inner.predict(actor, now, horizon)

    class ScalarOnly:
        """An aggregator without ``aggregate_rows``."""

        def aggregate(self, latencies, probabilities=None):
            return MaxAggregator().aggregate(latencies, probabilities)

    @pytest.mark.parametrize("part", ["predictor", "aggregator"])
    def test_refused_on_vectorized_backends(self, part, cut_in_trace_30):
        scenario = build_scenario("cut_in", seed=0)
        predictor = ManeuverPredictor(
            road=scenario.road, target_lane=scenario.spec.ego_lane
        )
        kwargs = (
            {"predictor": self.LoopOnly(predictor)}
            if part == "predictor"
            else {"predictor": predictor, "aggregator": self.ScalarOnly()}
        )
        for backend in ("batched", "crosstrace"):
            with pytest.raises(EstimationError, match='backend="scalar"'):
                OnlineEstimator(
                    params=ZhuyiParams(),
                    road=scenario.road,
                    backend=backend,
                    **kwargs,
                )
        scalar = OnlineEstimator(
            params=ZhuyiParams(), road=scenario.road, backend="scalar",
            **kwargs,
        ).replay(cut_in_trace_30, period=0.5)
        assert any(tick.actor_latencies for tick in scalar.ticks)


class TestReplaySamples:
    """``replay(samples=...)`` reuses a cell's presampling, checked."""

    def estimator(self, **kwargs):
        return OnlineEstimator(
            params=ZhuyiParams(),
            predictor=ConstantVelocityPredictor(),
            road=build_scenario("cut_in").road,
            backend="batched",
            **kwargs,
        )

    def test_matching_samples_replay_identically(self, cut_in_trace_30):
        samples = presample_trace(cut_in_trace_30, 0.5)
        assert_series_identical(
            self.estimator().replay(cut_in_trace_30, period=0.5),
            self.estimator().replay(
                cut_in_trace_30, period=0.5, samples=samples
            ),
        )

    def test_samples_at_another_stride_raise(self, cut_in_trace_30):
        samples = presample_trace(cut_in_trace_30, 0.25)
        with pytest.raises(EstimationError, match="stride"):
            self.estimator().replay(
                cut_in_trace_30, period=0.5, samples=samples
            )

    def test_samples_under_other_noise_raise(self, cut_in_trace_30):
        samples = presample_trace(cut_in_trace_30, 0.5)
        noise = PerceptionNoise(miss_rate=0.2, seed=3)
        with pytest.raises(EstimationError, match="noise"):
            self.estimator(noise=noise).replay(
                cut_in_trace_30, period=0.5, samples=samples
            )


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
