"""Cross-trace campaign backend: byte-identical to per-cell batched.

The acceptance bar of the ``"crosstrace"`` backend: a campaign routed
through :func:`execute_supercell` — traces and variants solved together
as whole-block array programs — must produce summaries (and JSONL run
lines) *equal* to the per-cell ``"batched"`` execution, on real
closed-loop traces including multi-actor density variants. The
block kernel itself, :func:`evaluate_trace_block` over stacked
roadless traces, gets the same treatment against the scalar reference.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro import OfflineEvaluator
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


def assert_block_matches_scalar(traces, stride, noise=None):
    """Stacked roadless traces: one block equals per-trace scalar runs."""
    samples = [presample_trace(trace, stride, noise=noise) for trace in traces]
    block = evaluate_trace_block(
        [
            TraceJob(trace=trace, samples=trace_samples, l0=trace.default_l0())
            for trace, trace_samples in zip(traces, samples)
        ],
        [ZhuyiParams()],
        stride,
    )
    for trace, trace_samples, (series,) in zip(traces, samples, block):
        assert not trace.has_collision, trace.scenario
        alone = OfflineEvaluator(
            stride=stride, backend="scalar", noise=noise
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
