"""Fault tolerance: kill/resume, streaming, sharding, variant cache.

The tentpole guarantees, end to end with real simulations:

* a campaign killed mid-flight and resumed via ``CampaignRunner.resume``
  produces a JSONL byte-identical to an uninterrupted run's (footer
  wall-clock aside);
* shards merged via ``CampaignResult.merge`` aggregate to the same
  Table 1 rows as the monolithic campaign;
* the cross-variant trace cache changes nothing but the clock —
  cached summaries equal per-run re-execution byte for byte, and a
  cell simulates and presamples once for all its variants.
"""

import json

import pytest

from repro.batch import (
    Campaign,
    CampaignResult,
    CampaignRunner,
    ParamVariant,
    campaign_table1,
    execute_cell,
)
from repro.core.parameters import ZhuyiParams


class Killed(Exception):
    """Raised by a progress hook to simulate a mid-campaign crash."""


@pytest.fixture(scope="module")
def campaign() -> Campaign:
    # Coarse stride keeps the evaluation cheap; the guarantees under
    # test are stride-independent.
    return Campaign(
        scenarios=("cut_out", "cut_in"),
        seeds=(0, 1),
        fprs=(30.0,),
        stride=0.5,
    )


@pytest.fixture(scope="module")
def uninterrupted(campaign, tmp_path_factory):
    path = tmp_path_factory.mktemp("full") / "campaign.jsonl"
    result = CampaignRunner(workers=1).run(campaign, out=path)
    return path, result


@pytest.mark.slow
class TestKillAndResume:
    def kill_after(self, campaign, path, runs: int):
        def hook(done, total, summary):
            if done >= runs:
                raise Killed()

        with pytest.raises(Killed):
            CampaignRunner(workers=1).run(campaign, hook, out=path)

    def test_partial_file_keeps_finished_runs(self, campaign, tmp_path):
        path = tmp_path / "killed.jsonl"
        self.kill_after(campaign, path, runs=2)
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        # Header + the two completed runs were flushed; no footer.
        assert [r["kind"] for r in records] == ["campaign", "run", "run"]
        assert [r["index"] for r in records[1:]] == [0, 1]

    def test_resumed_file_byte_identical_to_uninterrupted(
        self, campaign, uninterrupted, tmp_path
    ):
        full_path, _ = uninterrupted
        path = tmp_path / "killed.jsonl"
        self.kill_after(campaign, path, runs=1)
        resumed = CampaignRunner(workers=1).resume(path)
        assert resumed.is_complete

        full_lines = full_path.read_text().splitlines()
        resumed_lines = path.read_text().splitlines()
        # Everything but the footer matches byte for byte; the footer
        # differs only in wall-clock metadata.
        assert resumed_lines[:-1] == full_lines[:-1]
        full_footer = json.loads(full_lines[-1])
        resumed_footer = json.loads(resumed_lines[-1])
        assert full_footer["kind"] == resumed_footer["kind"] == "completed"
        assert full_footer["workers"] == resumed_footer["workers"]

    def test_resume_skips_completed_runs(self, campaign, tmp_path):
        path = tmp_path / "killed.jsonl"
        self.kill_after(campaign, path, runs=2)
        executed = []
        CampaignRunner(workers=1).resume(
            path, lambda done, total, s: executed.append(s.index)
        )
        # Only the two missing runs were executed.
        assert executed == [2, 3]

    def test_resume_after_torn_final_line(self, campaign, tmp_path):
        # Chop the last run line mid-byte (what a SIGKILL mid-write
        # leaves): resume drops it, re-runs that index, and the file
        # still converges to the canonical layout.
        path = tmp_path / "torn.jsonl"
        self.kill_after(campaign, path, runs=2)
        text = path.read_text()
        path.write_text(text[: len(text) - 40])  # tear into line 3
        resumed = CampaignRunner(workers=1).resume(path)
        assert resumed.is_complete
        reloaded = CampaignResult.load_jsonl(path)
        assert reloaded.is_complete
        assert [s.index for s in reloaded.summaries] == [0, 1, 2, 3]

    def test_resume_footerless_complete_file_appends_footer(
        self, campaign, tmp_path
    ):
        # Killed after the last run line but before the footer: resume
        # executes nothing and just stamps the footer.
        path = tmp_path / "footerless.jsonl"
        self.kill_after(campaign, path, runs=4)
        assert not CampaignResult.load_jsonl(path).source_footer
        resumed = CampaignRunner(workers=1).resume(
            path, lambda *a: pytest.fail("nothing should execute")
        )
        assert resumed.is_complete
        reloaded = CampaignResult.load_jsonl(path)
        assert reloaded.source_footer

    def test_resume_schema1_file_rewrites_canonically(
        self, campaign, uninterrupted, tmp_path
    ):
        import json as json_mod

        full_path, full = uninterrupted
        # Forge a PR-1 era partial: v1 header, first two runs only.
        path = tmp_path / "v1.jsonl"
        header = {
            "kind": "campaign", "schema": 1, "workers": 1,
            "elapsed": 0.0, "grid": campaign.to_dict(),
        }
        lines = [json_mod.dumps(header)] + [
            json_mod.dumps({"kind": "run", **s.to_dict()})
            for s in full.summaries[:2]
        ]
        path.write_text("\n".join(lines) + "\n")
        resumed = CampaignRunner(workers=1).resume(path)
        assert resumed.is_complete
        # The file is now canonical schema 2 — identical to an
        # uninterrupted run's, footer wall-clock aside.
        assert (
            path.read_text().splitlines()[:-1]
            == full_path.read_text().splitlines()[:-1]
        )
        assert not list(tmp_path.glob("*.tmp"))

    def test_crashed_rewrite_preserves_original(self, campaign, tmp_path):
        # A non-prefix partial (gap at index 0) forces the atomic
        # rewrite path; crashing mid-rewrite must leave the original
        # file byte-identical and no temp debris behind... the cached
        # expensive results survive.
        path = tmp_path / "gap.jsonl"
        full = CampaignRunner(workers=1).run(campaign)
        CampaignResult(
            campaign, full.summaries[1:3]
        ).save_jsonl(path)
        before = path.read_text()

        def crash(done, total, summary):
            raise Killed()

        with pytest.raises(Killed):
            CampaignRunner(workers=1).resume(path, crash)
        assert path.read_text() == before
        assert not list(tmp_path.glob("*.tmp"))

    def test_resume_retries_worker_error_runs(
        self, campaign, uninterrupted, tmp_path
    ):
        import json as json_mod

        full_path, full = uninterrupted
        # Forge a partial whose index-1 summary is a WorkerError (the
        # worker died — an environment accident, not a property of the
        # run): resume must re-execute it and purge the stale line.
        path = tmp_path / "crashed.jsonl"
        lines = full_path.read_text().splitlines()
        crashed = {
            "kind": "run",
            **full.summaries[1].to_dict(),
        }
        crashed.update(
            collided=False, max_fpr=None, max_total_fpr=None,
            fraction_of_provision=None, camera_max_fpr={}, ticks=0,
            duration=0.0, collision_time=None,
            error="WorkerError: BrokenProcessPool",
        )
        path.write_text(
            "\n".join([lines[0], lines[1], json_mod.dumps(crashed)]) + "\n"
        )
        executed = []
        resumed = CampaignRunner(workers=1).resume(
            path, lambda done, total, s: executed.append(s.index)
        )
        assert 1 in executed  # the crashed cell re-ran
        assert not resumed.failures()
        # File converged to the canonical uninterrupted layout.
        assert path.read_text().splitlines()[:-1] == lines[:-1]

    def test_resume_keeps_deterministic_failures(self, campaign, tmp_path):
        import json as json_mod

        from repro.batch import RunSummary

        # A run that raised deterministically keeps its summary: the
        # whole remainder executes, index 0 is not retried.
        path = tmp_path / "failed.jsonl"
        spec = campaign.runs()[0]
        failed = RunSummary(
            index=0, scenario=spec.scenario, seed=spec.seed, fpr=spec.fpr,
            variant=spec.variant, collided=False,
            error="SimulationError: boom",
        )
        CampaignResult(campaign, [failed]).save_jsonl(path)
        executed = []
        resumed = CampaignRunner(workers=1).resume(
            path, lambda done, total, s: executed.append(s.index)
        )
        assert executed == [1, 2, 3]
        assert [s.error for s in resumed.summaries][0] == (
            "SimulationError: boom"
        )

    def test_retry_failed_reexecutes_deterministic_errors(
        self, campaign, uninterrupted, tmp_path
    ):
        from repro.batch import RunSummary

        full_path, full = uninterrupted
        # A file whose index-0 summary is a deterministic error (say, a
        # since-fixed bug) and whose index-1 summary is a WorkerError:
        # plain resume re-runs only the WorkerError cell; --retry-failed
        # forces both, converging to the clean uninterrupted file.
        path = tmp_path / "mixed.jsonl"
        spec0 = campaign.runs()[0]
        failed = RunSummary(
            index=0, scenario=spec0.scenario, seed=spec0.seed,
            fpr=spec0.fpr, variant=spec0.variant, collided=False,
            error="SimulationError: since-fixed bug",
        )
        crashed = RunSummary(
            index=1, scenario=campaign.runs()[1].scenario,
            seed=campaign.runs()[1].seed, fpr=campaign.runs()[1].fpr,
            variant=campaign.runs()[1].variant, collided=False,
            error="WorkerError: BrokenProcessPool",
        )
        CampaignResult(campaign, [failed, crashed]).save_jsonl(path)

        executed: list[int] = []
        resumed = CampaignRunner(workers=1).resume(
            path,
            lambda done, total, s: executed.append(s.index),
            retry_failed=True,
        )
        assert sorted(executed) == [0, 1, 2, 3]
        assert not resumed.failures()
        # Byte-converged to the uninterrupted file, footer aside.
        assert (
            path.read_text().splitlines()[:-1]
            == full_path.read_text().splitlines()[:-1]
        )

    def test_retry_failed_on_complete_footered_file(
        self, campaign, uninterrupted, tmp_path
    ):
        import json as json_mod

        from repro.batch import RunSummary

        full_path, full = uninterrupted
        # Complete file (footer present) whose index-2 summary errored:
        # plain resume is a no-op; retry_failed re-runs just that cell.
        path = tmp_path / "complete_with_error.jsonl"
        lines = full_path.read_text().splitlines()
        spec = campaign.runs()[2]
        errored = {
            "kind": "run",
            **RunSummary(
                index=2, scenario=spec.scenario, seed=spec.seed,
                fpr=spec.fpr, variant=spec.variant, collided=False,
                error="EstimationError: transient",
            ).to_dict(),
        }
        lines[3] = json_mod.dumps(errored)  # header + runs 0..1, then 2
        path.write_text("\n".join(lines) + "\n")

        untouched = CampaignRunner(workers=1).resume(path, None)
        assert [s.index for s in untouched.failures()] == [2]

        executed: list[int] = []
        resumed = CampaignRunner(workers=1).resume(
            path,
            lambda done, total, s: executed.append(s.index),
            retry_failed=True,
        )
        assert executed == [2]
        assert not resumed.failures()
        assert (
            path.read_text().splitlines()[:-1]
            == full_path.read_text().splitlines()[:-1]
        )

    def test_resume_of_complete_file_runs_nothing(self, uninterrupted):
        path, result = uninterrupted
        before = path.read_text()
        resumed = CampaignRunner(workers=1).resume(
            path, lambda *a: pytest.fail("nothing should execute")
        )
        assert path.read_text() == before
        assert json.dumps([s.to_dict() for s in resumed.summaries]) == (
            json.dumps([s.to_dict() for s in result.summaries])
        )


@pytest.mark.slow
class TestShardMergeParity:
    def test_merged_shards_match_monolithic_table(
        self, campaign, uninterrupted, tmp_path
    ):
        _, monolithic = uninterrupted
        parts = []
        for index in range(2):
            path = tmp_path / f"part{index}.jsonl"
            CampaignRunner(workers=1).run(
                campaign, out=path, shard=(index, 2)
            )
            parts.append(CampaignResult.load_jsonl(path))
        merged = CampaignResult.merge(parts)
        assert merged.is_complete
        assert json.dumps([s.to_dict() for s in merged.summaries]) == (
            json.dumps([s.to_dict() for s in monolithic.summaries])
        )
        assert [row.__dict__ for row in campaign_table1(merged)] == [
            row.__dict__ for row in campaign_table1(monolithic)
        ]


@pytest.mark.slow
class TestVariantCacheParity:
    def test_cached_summaries_equal_per_run_execution(self):
        campaign = Campaign(
            scenarios=("cut_in",),
            seeds=(0,),
            fprs=(30.0,),
            stride=0.5,
            variants=(
                ParamVariant("default"),
                ParamVariant("strict", ZhuyiParams(c1=0.8, c2=0.8)),
            ),
        )
        cached = CampaignRunner(workers=1).run(campaign)
        uncached = [execute_cell([spec])[0] for spec in campaign.runs()]
        assert json.dumps([s.to_dict() for s in cached.summaries]) == (
            json.dumps([s.to_dict() for s in uncached])
        )
        # The variants genuinely differ — the cache isn't collapsing them.
        by_variant = {s.variant: s.max_fpr for s in cached.summaries}
        assert by_variant["default"] != by_variant["strict"]

    @pytest.mark.parametrize("backend", ["batched", "scalar"])
    def test_cell_simulates_and_presamples_once(self, monkeypatch, backend):
        # The cache is a count, not a speed: five variants of one cold
        # cell, one of them an online replay, cost one closed loop and
        # one presampling.
        import repro.batch.runner as runner_module
        import repro.core.online as online_module
        from repro.scenarios.base import BuiltScenario

        calls = {"run": 0, "presample": 0}
        run = BuiltScenario.run
        presample = runner_module.presample_trace

        def counting_run(self, *args, **kwargs):
            calls["run"] += 1
            return run(self, *args, **kwargs)

        def counting_presample(*args, **kwargs):
            calls["presample"] += 1
            return presample(*args, **kwargs)

        monkeypatch.setattr(BuiltScenario, "run", counting_run)
        for module in (runner_module, online_module):
            monkeypatch.setattr(
                module, "presample_trace", counting_presample
            )
        campaign = Campaign(
            scenarios=("cut_in",),
            seeds=(0,),
            fprs=(30.0,),
            stride=0.5,
            backend=backend,
            variants=(
                ParamVariant("default"),
                ParamVariant("strict", ZhuyiParams(c1=0.8, c2=0.8)),
                ParamVariant("loose", ZhuyiParams(c1=1.0, c2=1.0)),
                ParamVariant("soft_brake", ZhuyiParams(c3=4.0)),
                ParamVariant("cv", predictor="cv"),
            ),
        )
        result = CampaignRunner(workers=1).run(campaign)
        assert len(result.summaries) == 5
        assert not result.failures()
        assert calls == {"run": 1, "presample": 1}
