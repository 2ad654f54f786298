"""The vectorized evaluation keeps its results in arrays to the run line.

Per-tick and per-row objects — :class:`EvaluationTick`,
:class:`LatencyResult`, an actor's per-tick states — are built only
where a reader asks for one. A view that built them anyway, say to
answer ``len``, would bill every campaign cell for objects nobody
reads; these count tests catch that. The views must also give back
what the eager objects held, bit for bit.
"""

from dataclasses import replace

from repro import OfflineEvaluator, build_scenario
from repro.batch import Campaign, CampaignRunner, ParamVariant
from repro.core.evaluator import EvaluationSeries, EvaluationTick, presample_trace
from repro.core.latency import LatencyResult
from repro.core.parameters import ZhuyiParams
from repro.dynamics.state import StateTrajectory
from repro.geometry.vec import Vec2
from repro.perception.noise import PerceptionNoise
from repro.sim.trace import ScenarioTrace

NOISE = PerceptionNoise(miss_rate=0.05, position_noise=0.2)


def spy_init(monkeypatch, cls, built: list) -> None:
    """Record every instance of ``cls`` constructed."""
    init = cls.__init__

    def counted(self, *args, **kwargs):
        built.append(cls)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counted)


class TestOfflineCampaignBuildsNoObjects:
    def test_run_lines_build_no_ticks_results_or_actor_states(
        self, monkeypatch, tmp_path
    ):
        built: list = []
        spy_init(monkeypatch, EvaluationTick, built)
        spy_init(monkeypatch, LatencyResult, built)
        actor_trajectories: list = []
        sampled: list = []
        actor_trajectory = ScenarioTrace.actor_trajectory
        sample_ticks = StateTrajectory.sample_ticks

        def spy_actor_trajectory(self, actor_id):
            trajectory = actor_trajectory(self, actor_id)
            actor_trajectories.append(trajectory)
            return trajectory

        def spy_sample_ticks(self, times):
            sampled.append(self)
            return sample_ticks(self, times)

        monkeypatch.setattr(
            ScenarioTrace, "actor_trajectory", spy_actor_trajectory
        )
        monkeypatch.setattr(StateTrajectory, "sample_ticks", spy_sample_ticks)

        campaign = Campaign(
            scenarios=("cut_in", "cut_out"),
            seeds=(0,),
            fprs=(30.0,),
            variants=(
                ParamVariant("paper"),
                ParamVariant("c1_0.85", ZhuyiParams(c1=0.85)),
            ),
            stride=0.5,
            backend="crosstrace",
            noise=replace(NOISE, seed=2),
        )
        out = tmp_path / "campaign.jsonl"
        result = CampaignRunner(workers=1, supercell=2).run(campaign, out=out)

        assert len(result) == 4 and not result.failures()
        assert all(summary.ticks > 0 for summary in result.summaries)
        assert actor_trajectories, "the cells' actors were presampled"
        assert built == []
        assert not {id(t) for t in sampled} & {
            id(t) for t in actor_trajectories
        }


class TestSeriesRoundTrip:
    def test_scalar_ticks_come_back_equal_in_dict_order(
        self, monkeypatch, cut_out_trace_30
    ):
        # A multi-actor trace: ticks demand from different actor
        # subsets, so an actor axis in first-seen order would reorder
        # some ticks' latencies.
        recorded = []
        evaluate_tick = OfflineEvaluator._evaluate_tick

        def keep(self, *args, **kwargs):
            tick = evaluate_tick(self, *args, **kwargs)
            recorded.append(tick)
            return tick

        monkeypatch.setattr(OfflineEvaluator, "_evaluate_tick", keep)
        series = OfflineEvaluator(
            road=build_scenario("cut_out").road, stride=0.25, backend="scalar"
        ).evaluate(cut_out_trace_30)

        assert any(len(tick.actor_latencies) > 1 for tick in recorded)
        assert len(series.ticks) == len(recorded)
        for tick, original in zip(series.ticks, recorded, strict=True):
            assert tick == original
            assert list(tick.actor_latencies) == list(original.actor_latencies)
            assert list(tick.camera_estimates) == list(
                original.camera_estimates
            )

    def test_series_summaries_read_the_recorded_ticks(self, cut_out_trace_30):
        series = OfflineEvaluator(
            road=build_scenario("cut_out").road, stride=0.5, backend="scalar"
        ).evaluate(cut_out_trace_30)
        again = EvaluationSeries(
            series.scenario, list(series.ticks), series.params, series.l0
        )
        assert again.max_total_fpr() == max(
            tick.total_fpr() for tick in series.ticks
        )
        assert again.max_fpr() == series.max_fpr()
        assert again.times() == series.times()


class TestActorStatesOnDemand:
    def eager_states(self, trace, stride, noise):
        """Every actor's tick states as the eager presampling built them."""
        samples = presample_trace(trace, stride, noise=noise)
        states = {}
        for actor_id in trace.actor_ids():
            ticks, (xs, ys) = trace.actor_trajectory(actor_id).sample_ticks(
                samples.times
            )
            if noise is not None:
                _, dx, dy = noise.sample_actor(actor_id, samples.times)
                xs = xs + dx
                ys = ys + dy
                ticks = [
                    replace(state, position=Vec2(float(x), float(y)))
                    for state, x, y in zip(ticks, xs, ys)
                ]
            states[actor_id] = ticks
        return states

    def check(self, trace, noise):
        samples = presample_trace(trace, 0.1, noise=noise)
        expected = self.eager_states(trace, 0.1, noise)
        assert list(samples.actor_states) == list(expected)
        assert len(samples.actor_states) == len(expected)
        for actor_id, states in expected.items():
            assert samples.actor_states[actor_id] == states
            xs, ys = samples.actor_positions[actor_id]
            assert [s.position.x for s in states] == xs.tolist()
            assert [s.position.y for s in states] == ys.tolist()

    def test_noise_free_states_equal_the_eager_ones(self, cut_out_trace_30):
        self.check(cut_out_trace_30, None)

    def test_noisy_states_equal_the_eager_ones(self, cut_out_trace_30):
        self.check(cut_out_trace_30, NOISE)

    def test_states_build_once_per_actor_on_first_read(
        self, monkeypatch, cut_out_trace_30
    ):
        samples = presample_trace(cut_out_trace_30, 0.1, noise=NOISE)
        calls = []
        sample_ticks = StateTrajectory.sample_ticks

        def spy(self, times):
            calls.append(self)
            return sample_ticks(self, times)

        monkeypatch.setattr(StateTrajectory, "sample_ticks", spy)
        first = next(iter(samples.actor_states))
        assert calls == []
        states = samples.actor_states[first]
        assert samples.actor_states[first] is states
        assert len(calls) == 1
