"""Cross-trace campaign backend: byte-identical to per-cell batched.

The acceptance bar of the ``"crosstrace"`` backend: a campaign routed
through :func:`execute_supercell` — traces and variants solved together
as whole-block array programs — must produce summaries (and JSONL run
lines) *equal* to the per-cell ``"batched"`` execution, on real
closed-loop traces including multi-actor density variants. The
block kernel itself, :func:`evaluate_trace_block` over stacked
traces, gets the same treatment against the scalar reference.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro import OfflineEvaluator, build_scenario
from repro.batch import Campaign, CampaignRunner, ParamVariant
from repro.core.evaluator import TraceJob, evaluate_trace_block, presample_trace
from repro.core.parameters import ZhuyiParams
from repro.perception.noise import PerceptionNoise


def run_campaign(backend, tmp_path, **kwargs):
    campaign = Campaign(backend=backend, **kwargs)
    out = tmp_path / f"{backend}.jsonl"
    result = CampaignRunner(workers=1).run(campaign, out=out)
    assert not result.failures()
    lines = out.read_text().splitlines()
    # Drop the header (carries the backend tag) and footer (wall clock):
    # every run line must match byte for byte.
    return [line for line in lines if '"kind": "run"' in line]


@pytest.mark.slow
class TestCampaignParity:
    def test_multi_variant_campaign_byte_identical(self, tmp_path):
        base = ZhuyiParams()
        grid = dict(
            scenarios=("cut_in", "cut_out"),
            seeds=(0,),
            fprs=(30.0,),
            variants=(
                ParamVariant("paper"),
                ParamVariant("c1_09", replace(base, c1=0.9)),
                ParamVariant("c2_09", replace(base, c2=0.9)),
            ),
            stride=0.25,
        )
        batched = run_campaign("batched", tmp_path, **grid)
        crosstrace = run_campaign("crosstrace", tmp_path, **grid)
        assert batched == crosstrace
        assert len(batched) == 6
        # The headers differ only in the backend tag.
        headers = {}
        for backend in ("batched", "crosstrace"):
            header = json.loads(
                (tmp_path / f"{backend}.jsonl").read_text().splitlines()[0]
            )
            assert header["grid"].pop("backend") == backend
            headers[backend] = json.dumps(header)
        assert headers["batched"] == headers["crosstrace"]

    def test_density_variant_campaign_byte_identical(self, tmp_path):
        grid = dict(
            scenarios=("cut_in_dense4",),
            seeds=(0, 1),
            fprs=(30.0,),
            variants=(
                ParamVariant("paper"),
                ParamVariant(
                    "tight", replace(ZhuyiParams(), c1=0.85, c2=0.9)
                ),
            ),
            stride=0.25,
        )
        batched = run_campaign("batched", tmp_path, **grid)
        crosstrace = run_campaign("crosstrace", tmp_path, **grid)
        assert batched == crosstrace

    def test_run_lines_carry_real_estimates(self, tmp_path):
        lines = run_campaign(
            "crosstrace",
            tmp_path,
            scenarios=("cut_in",),
            seeds=(0,),
            fprs=(30.0,),
            stride=0.25,
        )
        (record,) = [json.loads(line) for line in lines]
        assert record["max_fpr"] is not None
        assert record["error"] is None


@pytest.mark.slow
class TestNoisyCampaignParity:
    """Noisy campaigns stay byte-identical across every backend.

    Counter-based draws make evaluation-time noise a pure function of
    (cell-derived seed, timestamp bits, actor id) — see
    ``repro/core/rng.py`` — so enabling it must not open any gap
    between the scalar reference loop, the per-cell batched kernels and
    the cross-trace supercell path.
    """

    NOISE = PerceptionNoise(miss_rate=0.1, position_noise=0.25, seed=5)

    def test_noisy_all_backends_byte_identical(self, tmp_path):
        grid = dict(
            scenarios=("cut_in", "cut_out"),
            seeds=(0, 1),
            fprs=(10.0, 30.0),
            stride=0.25,
            noise=self.NOISE,
        )
        scalar = run_campaign("scalar", tmp_path, **grid)
        batched = run_campaign("batched", tmp_path, **grid)
        crosstrace = run_campaign("crosstrace", tmp_path, **grid)
        assert scalar == batched == crosstrace
        assert len(batched) == 8

    def test_noisy_dense_variant_byte_identical(self, tmp_path):
        grid = dict(
            scenarios=("cut_in_dense4",),
            seeds=(0,),
            fprs=(30.0,),
            variants=(
                ParamVariant("paper"),
                ParamVariant(
                    "tight", replace(ZhuyiParams(), c1=0.85, c2=0.9)
                ),
            ),
            stride=0.25,
            noise=self.NOISE,
        )
        batched = run_campaign("batched", tmp_path, **grid)
        crosstrace = run_campaign("crosstrace", tmp_path, **grid)
        assert batched == crosstrace

    def test_noisy_shard_merge_matches_unsharded(self, tmp_path):
        from repro.batch import CampaignResult

        campaign = Campaign(
            scenarios=("cut_in", "cut_out"),
            seeds=(0, 1),
            fprs=(30.0,),
            stride=0.25,
            noise=self.NOISE,
        )
        whole = tmp_path / "whole.jsonl"
        CampaignRunner(workers=1).run(campaign, out=whole)
        parts = []
        for index in range(2):
            part = tmp_path / f"part{index}.jsonl"
            CampaignRunner(workers=1).run(campaign, out=part, shard=(index, 2))
            parts.append(CampaignResult.load_jsonl(part))
        merged = tmp_path / "merged.jsonl"
        CampaignResult.merge(parts).save_jsonl(merged)
        pick = lambda path: [
            line
            for line in path.read_text().splitlines()
            if '"kind": "run"' in line
        ]
        assert pick(whole) == pick(merged)

    def test_noisy_kill_resume_matches_uninterrupted(self, tmp_path):
        campaign = Campaign(
            scenarios=("cut_in", "cut_out"),
            seeds=(0, 1),
            fprs=(30.0,),
            stride=0.25,
            noise=self.NOISE,
        )
        whole = tmp_path / "whole.jsonl"
        CampaignRunner(workers=1).run(campaign, out=whole)

        class Killed(RuntimeError):
            pass

        def kill_hook(done, total, summary):
            if done >= 2:
                raise Killed()

        killed = tmp_path / "killed.jsonl"
        with pytest.raises(Killed):
            CampaignRunner(workers=1).run(campaign, kill_hook, out=killed)
        resumed = CampaignRunner(workers=1).resume(killed)
        assert resumed.is_complete
        # Identical run lines — the resumed noise draws key on tick
        # times and actor ids, not on where the first attempt died.
        pick = lambda path: [
            line
            for line in path.read_text().splitlines()
            if '"kind": "run"' in line
        ]
        assert pick(whole) == pick(killed)

    def test_noisy_evaluate_many_matches_single(
        self, cut_in_trace_30, cut_out_trace_30
    ):
        noise = PerceptionNoise(miss_rate=0.2, position_noise=0.4, seed=3)
        assert_block_matches_scalar(
            (cut_in_trace_30, cut_out_trace_30), 0.25, noise=noise
        )


class TestNoBlockRetry:
    """A block's offline specs solve in the block or fail with it.

    There is no per-variant retry: a block kernel error fails the
    block's offline specs, so a kernel fault that shows only when
    several jobs stack reads as error rows, not as slowness with
    correct rows. Online variants take ``_evaluate_cell`` on purpose;
    an offline spec there means the block was bypassed.
    """

    @staticmethod
    def spy_cells(monkeypatch):
        """Record every spec that reaches ``_evaluate_cell``."""
        import repro.batch.runner as runner_module

        evaluated = []
        evaluate_cell = runner_module._evaluate_cell

        def spy(specs, *args, **kwargs):
            evaluated.extend(specs)
            return evaluate_cell(specs, *args, **kwargs)

        monkeypatch.setattr(runner_module, "_evaluate_cell", spy)
        return evaluated

    def test_offline_specs_stay_in_the_block(self, monkeypatch, tmp_path):
        grid = dict(
            scenarios=("cut_in", "challenging_cut_in_curved"),
            seeds=(0,),
            fprs=(30.0,),
            variants=(
                ParamVariant("paper"),
                ParamVariant("tight", replace(ZhuyiParams(), c1=0.85)),
                ParamVariant("cv", predictor="cv"),
            ),
            stride=0.5,
            noise=PerceptionNoise(miss_rate=0.1, position_noise=0.25, seed=5),
        )
        scalar = run_campaign("scalar", tmp_path, **grid)
        evaluated = self.spy_cells(monkeypatch)
        campaign = Campaign(backend="crosstrace", **grid)
        out = tmp_path / "block.jsonl"
        result = CampaignRunner(workers=1, supercell=2).run(campaign, out=out)

        assert not result.failures()
        assert evaluated, "the online variant replays per cell"
        assert all(spec.predictor is not None for spec in evaluated)
        lines = out.read_text().splitlines()
        assert [line for line in lines if '"kind": "run"' in line] == scalar
        assert len(scalar) == 6

    def test_constraint_sweep_stays_in_the_block(self, monkeypatch, tmp_path):
        """The benchmark's four-variant c1/c2 sweep solves on the variant
        axis of one block, never through the per-variant retry."""
        grid = dict(
            scenarios=("cut_in_dense8", "challenging_cut_in_curved"),
            seeds=(0,),
            fprs=(30.0,),
            variants=(
                ParamVariant("paper"),
                ParamVariant("c1_0.85", ZhuyiParams(c1=0.85)),
                ParamVariant("c2_0.85", ZhuyiParams(c2=0.85)),
                ParamVariant("c1_0.95", ZhuyiParams(c1=0.95)),
            ),
            stride=0.5,
            noise=PerceptionNoise(miss_rate=0.05, position_noise=0.2, seed=0),
        )
        scalar = run_campaign("scalar", tmp_path, **grid)
        evaluated = self.spy_cells(monkeypatch)
        campaign = Campaign(backend="crosstrace", **grid)
        out = tmp_path / "block.jsonl"
        result = CampaignRunner(workers=1, supercell=2).run(campaign, out=out)

        assert not result.failures()
        assert not evaluated, "an offline spec left the block"
        lines = out.read_text().splitlines()
        assert [line for line in lines if '"kind": "run"' in line] == scalar
        assert len(scalar) == 8


    def test_block_error_fails_the_offline_specs(self, monkeypatch):
        """A block kernel error fails exactly the block's offline specs,
        with the error and the trace's duration; the cells' online
        variants still replay, and no offline spec re-runs per variant."""
        import repro.batch.runner as runner_module

        def explode(*args, **kwargs):
            raise RuntimeError("kernel exploded")

        monkeypatch.setattr(runner_module, "evaluate_trace_block", explode)
        evaluated = self.spy_cells(monkeypatch)
        campaign = Campaign(
            backend="crosstrace",
            scenarios=("cut_in", "cut_out"),
            seeds=(0,),
            fprs=(30.0,),
            variants=(
                ParamVariant("paper"),
                ParamVariant("tight", replace(ZhuyiParams(), c1=0.85)),
                ParamVariant("cv", predictor="cv"),
            ),
            stride=0.5,
        )
        result = CampaignRunner(workers=1, supercell=2).run(campaign)

        runs = campaign.runs()
        offline = {spec.index for spec in runs if spec.predictor is None}
        assert len(offline) == 4 and len(result.summaries) == 6
        failed = result.failures()
        assert {summary.index for summary in failed} == offline
        for summary in failed:
            assert summary.error == "RuntimeError: kernel exploded"
            assert summary.duration > 0.0
        assert sorted(spec.index for spec in evaluated) == sorted(
            set(range(6)) - offline
        )
        assert all(spec.predictor is not None for spec in evaluated)


def assert_block_matches_scalar(traces, stride, noise=None):
    """Stacked catalog traces: one block equals per-trace scalar runs."""
    samples = [presample_trace(trace, stride, noise=noise) for trace in traces]
    roads = [build_scenario(trace.scenario).road for trace in traces]
    block = evaluate_trace_block(
        [
            TraceJob(
                trace=trace,
                samples=trace_samples,
                l0=trace.default_l0(),
                road=road,
            )
            for trace, trace_samples, road in zip(traces, samples, roads)
        ],
        [ZhuyiParams()],
        stride,
    )
    for trace, trace_samples, road, (series,) in zip(
        traces, samples, roads, block
    ):
        assert not trace.has_collision, trace.scenario
        alone = OfflineEvaluator(
            road=road, stride=stride, backend="scalar", noise=noise
        ).evaluate(trace, samples=trace_samples)
        assert len(series.ticks) == len(alone.ticks)
        for tick_a, tick_b in zip(series.ticks, alone.ticks):
            assert tick_a.time == tick_b.time
            assert dict(tick_a.actor_latencies) == dict(
                tick_b.actor_latencies
            )
            assert dict(tick_a.camera_estimates) == dict(
                tick_b.camera_estimates
            )


@pytest.mark.slow
class TestEvaluateMany:
    def test_matches_one_trace_at_a_time(
        self, cut_in_trace_30, cut_out_trace_30
    ):
        assert_block_matches_scalar((cut_in_trace_30, cut_out_trace_30), 0.25)


class TestBlockWindows:
    """The block samples and solves one bounded window of ticks at a time."""

    def test_small_budget_windows_match_scalar(
        self, monkeypatch, cut_in_trace_30, cut_out_trace_30
    ):
        import repro.core.evaluator as evaluator_module
        from repro.core.engine import LatencyEngine
        from repro.core.threat import ThreatAssessor

        # A budget below one tick's rows: every window holds one
        # stacked tick, so the two traces' rows solve in many calls.
        monkeypatch.setattr(evaluator_module, "_ROW_ELEMENTS", 1)
        events = []
        sample = ThreatAssessor.sample_threats_trace
        solve = LatencyEngine.solve_rows

        def spy_sample(self, ego_states, *args, **kwargs):
            events.append(("sample", len(ego_states)))
            return sample(self, ego_states, *args, **kwargs)

        def spy_solve(self, grid, tick_indices, *args, **kwargs):
            events.append(("solve", len(set(tick_indices.tolist()))))
            return solve(self, grid, tick_indices, *args, **kwargs)

        monkeypatch.setattr(ThreatAssessor, "sample_threats_trace", spy_sample)
        monkeypatch.setattr(LatencyEngine, "solve_rows", spy_solve)

        traces = (cut_in_trace_30, cut_out_trace_30)
        assert_block_matches_scalar(traces, 0.5)

        # At most one window of sampled rows (one stacked tick: one row
        # per actor) is held between consecutive solves.
        max_rows = max(len(trace.actor_ids()) for trace in traces)
        pending, solves = 0, 0
        for kind, count in events:
            if kind == "sample":
                pending += count
                assert pending <= max_rows
            else:
                assert count == 1
                pending, solves = 0, solves + 1
        assert pending == 0
        assert solves > 1

    def test_one_corridor_layout_per_window(self, monkeypatch, call_counter):
        import repro.core.evaluator as evaluator_module
        from repro.core.engine import LatencyEngine
        from repro.core.threat import CorridorLayout, ThreatAssessor
        from repro.scenarios.catalog import ensure_scenario

        assert ensure_scenario("cut_in_dense8")
        scenario = build_scenario("cut_in_dense8", seed=0)
        trace = scenario.run(fpr=30.0)

        def evaluate(backend):
            return OfflineEvaluator(
                stride=0.5, road=scenario.road, backend=backend
            ).evaluate(trace)

        scalar = evaluate("scalar")
        # Windows of a few stacked ticks, each sampling several actors.
        monkeypatch.setattr(evaluator_module, "_ROW_ELEMENTS", 100_000)
        call_counter.watch(CorridorLayout, "of")
        call_counter.watch(ThreatAssessor, "sample_threats_trace")
        call_counter.watch(LatencyEngine, "solve_rows")
        block = evaluate("batched")

        for tick_a, tick_b in zip(block.ticks, scalar.ticks, strict=True):
            assert tick_a.time == tick_b.time
            assert dict(tick_a.actor_latencies) == dict(
                tick_b.actor_latencies
            )
            assert dict(tick_a.camera_estimates) == dict(
                tick_b.camera_estimates
            )
        windows = call_counter["solve_rows"]
        assert windows > 1
        assert call_counter["of"] == windows
        assert call_counter["sample_threats_trace"] > 2 * windows

    def test_window_rows_sampled_and_solved_once(
        self, monkeypatch, call_counter
    ):
        """A window's rows are sampled once per source and solved once,
        under all of the block's variants."""
        import repro.core.evaluator as evaluator_module
        from repro.core.engine import LatencyEngine
        from repro.core.threat import ThreatAssessor
        from repro.scenarios.catalog import ensure_scenario

        assert ensure_scenario("cut_in_dense8")
        scenario = build_scenario("cut_in_dense8", seed=0)
        trace = scenario.run(fpr=30.0)
        variants = [
            ZhuyiParams(),
            ZhuyiParams(c1=0.85),
            ZhuyiParams(c2=0.85),
            ZhuyiParams(c1=0.95),
        ]
        alone = [
            OfflineEvaluator(
                params=params, stride=0.5, road=scenario.road
            ).evaluate(trace)
            for params in variants
        ]

        # Windows of a few stacked ticks, each sampling several actors.
        monkeypatch.setattr(evaluator_module, "_ROW_ELEMENTS", 100_000)
        sampled: list[tuple[int, int]] = []
        windows = []
        sample = ThreatAssessor.sample_threats_trace
        solve = LatencyEngine.solve_rows

        def spy_sample(self, ego_states, ego_spec, trajectory, *args, **kwargs):
            sampled.append((id(trajectory), len(ego_states)))
            return sample(self, ego_states, ego_spec, trajectory, *args, **kwargs)

        def spy_solve(self, grid, tick_indices, motions, gaps, *args, **kwargs):
            result = solve(self, grid, tick_indices, motions, gaps, *args, **kwargs)
            windows.append((list(sampled), gaps.shape[0], len(result)))
            sampled.clear()
            return result

        monkeypatch.setattr(ThreatAssessor, "sample_threats_trace", spy_sample)
        monkeypatch.setattr(LatencyEngine, "solve_rows", spy_solve)
        call_counter.watch(ThreatAssessor, "sample_threats_trace")
        call_counter.watch(LatencyEngine, "solve_rows")
        job = TraceJob(
            trace=trace,
            samples=presample_trace(trace, 0.5),
            l0=trace.default_l0(),
            road=scenario.road,
        )
        (block,) = evaluate_trace_block([job], variants, 0.5)

        assert not sampled
        assert call_counter["solve_rows"] == len(windows) > 1
        assert call_counter["sample_threats_trace"] == sum(
            len(window) for window, _, _ in windows
        )
        for window, rows, answers in windows:
            sources = [source for source, _ in window]
            assert len(set(sources)) == len(sources), "a source sampled twice"
            assert rows == sum(count for _, count in window)
            assert answers == len(variants) * rows
        for series, expected in zip(block, alone, strict=True):
            for tick_a, tick_b in zip(series.ticks, expected.ticks, strict=True):
                assert dict(tick_a.actor_latencies) == dict(
                    tick_b.actor_latencies
                )
                assert dict(tick_a.camera_estimates) == dict(
                    tick_b.camera_estimates
                )

    def test_windows_carry_their_readable_prefix(
        self, monkeypatch, cut_in_trace_30, cut_out_trace_30
    ):
        import repro.core.evaluator as evaluator_module
        from repro.core.engine import LatencyEngine
        from repro.core.threat import ThreatAssessor

        # Windows of a few stacked ticks. The stacked grid's master axis
        # spans the cut-in's longest horizon; the cut-out's ticks read a
        # shorter prefix of it.
        monkeypatch.setattr(evaluator_module, "_ROW_ELEMENTS", 40_000)
        pending: list[int] = []
        windows = []
        sample = ThreatAssessor.sample_threats_trace
        solve = LatencyEngine.solve_rows

        def spy_sample(
            self, ego_states, ego_spec, trajectory, spec, t0s, rel_times,
            **kwargs,
        ):
            pending.append(len(rel_times))
            return sample(
                self, ego_states, ego_spec, trajectory, spec, t0s, rel_times,
                **kwargs,
            )

        def spy_solve(self, grid, tick_indices, *args, **kwargs):
            windows.append((grid, np.array(tick_indices), list(pending)))
            pending.clear()
            return solve(self, grid, tick_indices, *args, **kwargs)

        monkeypatch.setattr(ThreatAssessor, "sample_threats_trace", spy_sample)
        monkeypatch.setattr(LatencyEngine, "solve_rows", spy_solve)

        assert_block_matches_scalar((cut_in_trace_30, cut_out_trace_30), 0.5)

        assert not pending
        trimmed = 0
        for grid, ticks, sampled in windows:
            n_times = grid.times.size
            prefix = min(int(grid.lengths[ticks].max()), n_times)
            assert sampled
            assert set(sampled) == {prefix + grid.reactions.size}
            trimmed += prefix < n_times
        assert trimmed, "some window must skip the master grid's tail"
