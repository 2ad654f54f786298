"""CLI surface."""

import json
import os

import pytest

from repro import build_scenario
from repro.cli import build_parser, main
from repro.sim.trace import ScenarioTrace


class TestParser:
    def test_scenarios_command(self):
        args = build_parser().parse_args(["scenarios"])
        assert args.command == "scenarios"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "cut_in"])
        assert args.fpr == 30.0
        assert args.seed == 0

    def test_run_rejects_unknown_scenario(self, capsys):
        # Validated by build_scenario, not by argparse choices, so every
        # name a campaign accepts also runs here.
        assert main(["run", "warp"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_sweep_gap_positional(self):
        args = build_parser().parse_args(["sweep", "100"])
        assert args.gap == 100.0

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_campaign_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert args.scenarios == []
        assert args.seeds == 1
        assert args.fprs == "30"
        assert args.workers == 1
        assert args.stride == 0.05
        assert args.out is None
        assert args.resume is None
        assert args.shard is None
        assert not args.expand_speeds

    def test_campaign_backend_flag(self):
        args = build_parser().parse_args(["campaign"])
        assert args.backend == "batched"
        args = build_parser().parse_args(["campaign", "--backend", "scalar"])
        assert args.backend == "scalar"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--backend", "gpu"])

    def test_campaign_retry_failed_flag(self):
        args = build_parser().parse_args(["campaign"])
        assert not args.retry_failed
        args = build_parser().parse_args(
            ["campaign", "--resume", "c.jsonl", "--retry-failed"]
        )
        assert args.retry_failed

    def test_campaign_resume_and_shard_flags(self):
        args = build_parser().parse_args(
            ["campaign", "--resume", "campaign.jsonl"]
        )
        assert args.resume == "campaign.jsonl"
        args = build_parser().parse_args(["campaign", "--shard", "2/8"])
        assert args.shard == "2/8"

    def test_campaign_merge_parser(self):
        args = build_parser().parse_args(
            ["campaign-merge", "a.jsonl", "b.jsonl", "--out", "m.jsonl"]
        )
        assert args.command == "campaign-merge"
        assert args.parts == ["a.jsonl", "b.jsonl"]
        assert args.out == "m.jsonl"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign-merge"])  # needs parts

    def test_campaign_grid_flags(self):
        args = build_parser().parse_args(
            ["campaign", "cut_out", "cut_in", "--seeds", "4",
             "--fprs", "5,30", "--workers", "2", "--expand-speeds"]
        )
        assert args.scenarios == ["cut_out", "cut_in"]
        assert args.seeds == 4
        assert args.fprs == "5,30"
        assert args.workers == 2
        assert args.expand_speeds


class TestCommands:
    def test_scenarios_lists_all(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "cut_out_fast" in out
        assert "vehicle_following" in out

    def test_sweep_renders(self, capsys):
        assert main(["sweep", "30", "--resolution", "6"]) == 0
        out = capsys.readouterr().out
        assert "s_n = 30 m" in out
        assert "max finite FPR" in out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--resolution", "-3"], "must be non-negative"),
            (["--", "-5"], "gap must be positive"),
            (["--resolution", "0"], "at least one speed"),
        ],
        ids=["negative-resolution", "negative-gap", "empty-sweep"],
    )
    def test_sweep_bad_input_exits_two(self, argv, message, capsys):
        assert main(["sweep", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert message in captured.err
        assert "max finite FPR" not in captured.out

    def test_run_rejects_unrunnable_fpr(self, unrunnable_fpr, capsys):
        assert main(["run", "cut_in", "--fpr", str(unrunnable_fpr)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: FPR must be within")
        assert "collision" not in captured.out

    @pytest.mark.slow
    def test_run_and_save_trace(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        code = main(
            ["run", "cut_in", "--fpr", "30", "--save-trace", str(path)]
        )
        assert code == 0
        assert path.exists()
        out = capsys.readouterr().out
        assert "max estimated FPR" in out

    @pytest.mark.slow
    def test_collided_run_still_saves_trace(
        self, tmp_path, capsys, columns_equal
    ):
        path = tmp_path / "collided.json"
        code = main(
            ["run", "cut_out", "--fpr", "1", "--save-trace", str(path)]
        )
        assert code == 1
        assert "collision: True" in capsys.readouterr().out
        # The simulator's steps are built lazily from its columns; their
        # JSON export reloads to the same columns.
        assert columns_equal(
            ScenarioTrace.load_json(path),
            build_scenario("cut_out", seed=0).run(fpr=1),
        )

    @pytest.mark.slow
    def test_mrf_command(self, capsys):
        assert main(["mrf", "vehicle_following", "--grid", "1,2"]) == 0
        out = capsys.readouterr().out
        assert "minimum required FPR: <1" in out


class TestMRFCommand:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["cut_in", "--grid", "1,abc"], "could not convert"),
            (["cut_in", "--grid", "2,2"], "duplicate fpr"),
            (["cut_in", "--seeds", "0"], "must be non-empty"),
            (["warp"], "unknown scenario 'warp'"),
            (["vehicle_following", "--grid", "0,30"], "FPR must be within"),
        ],
        ids=[
            "malformed-grid", "duplicate-rate", "no-seeds", "unknown",
            "unrunnable-rate",
        ],
    )
    def test_bad_input_exits_two(self, argv, message, capsys):
        assert main(["mrf", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message in err

    @pytest.mark.slow
    def test_failed_rate_reported_and_left_out(self, capsys, monkeypatch):
        from repro.scenarios.base import BuiltScenario

        run = BuiltScenario.run

        def run_or_fail(self, fpr=30.0, **kwargs):
            if fpr == 1.0:
                raise RuntimeError("injected failure")
            return run(self, fpr=fpr, **kwargs)

        monkeypatch.setattr(BuiltScenario, "run", run_or_fail)
        assert main(["mrf", "vehicle_following", "--grid", "1,2"]) == 1
        captured = capsys.readouterr()
        assert "1 failed run(s)" in captured.err
        assert "fpr=1 [default]: RuntimeError: injected failure" in (
            captured.err
        )
        # Only 2 FPR has an outcome, so the failed rate cannot be the
        # MRF: "<2", where counting it safe would read "<1".
        assert "minimum required FPR: <2" in captured.out
        assert "collision rates: none" in captured.out

    @pytest.mark.slow
    def test_accepts_density_variant(self, capsys):
        assert main(["mrf", "cut_in_dense2", "--grid", "30"]) == 0
        out = capsys.readouterr().out
        assert "Searching MRF for 'cut_in_dense2'" in out
        assert "minimum required FPR: <30" in out


class TestCampaignCommand:
    def test_unknown_scenario_exits_nonzero(self, capsys):
        assert main(["campaign", "warp"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_bad_fpr_list_exits_nonzero(self, capsys):
        assert main(["campaign", "cut_in", "--fprs", "30,abc"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unrunnable_fpr_exits_before_any_run(self, tmp_path, capsys):
        out = tmp_path / "grid.jsonl"
        code = main(
            ["campaign", "cut_in", "--fprs", "30,200", "--out", str(out)]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: FPR must be within")
        assert not out.exists()

    def test_malformed_shard_exits_nonzero(self, capsys):
        assert main(["campaign", "cut_in", "--shard", "nope"]) == 2
        assert "--shard wants I/N" in capsys.readouterr().err

    def test_out_of_range_shard_exits_nonzero(self, capsys):
        assert main(["campaign", "cut_in", "--shard", "5/5"]) == 2
        assert "error" in capsys.readouterr().err

    def test_resume_conflicts_exit_nonzero(self, capsys):
        assert main(["campaign", "cut_in", "--resume", "x.jsonl"]) == 2
        assert "--resume" in capsys.readouterr().err
        assert (
            main(["campaign", "--resume", "x.jsonl", "--out", "y.jsonl"]) == 2
        )

    def test_resume_rejects_silently_ignored_grid_flags(self, capsys):
        # seeds/fprs/stride also come from the file; accepting them
        # silently would mislead about what actually ran.
        for flags in (["--seeds", "4"], ["--fprs", "5,30"],
                      ["--stride", "0.1"]):
            assert main(["campaign", "--resume", "x.jsonl", *flags]) == 2
            assert "--resume" in capsys.readouterr().err

    def test_resume_rejects_backend_flag(self, capsys):
        assert (
            main(["campaign", "--resume", "x.jsonl", "--backend", "scalar"])
            == 2
        )
        assert "--resume" in capsys.readouterr().err

    def test_retry_failed_without_resume_exits_nonzero(self, capsys):
        assert main(["campaign", "cut_in", "--retry-failed"]) == 2
        assert "--retry-failed" in capsys.readouterr().err

    def test_unwritable_out_exits_nonzero(self, tmp_path, capsys):
        target = tmp_path / "no" / "such" / "dir" / "c.jsonl"
        code = main(
            ["campaign", "cut_in", "--stride", "0.5", "--out", str(target)]
        )
        assert code == 2
        assert "cannot write" in capsys.readouterr().err

    def test_resume_missing_file_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "missing.jsonl"
        assert main(["campaign", "--resume", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.slow
    def test_resume_retry_failed_interaction_with_worker_retry(
        self, tmp_path, capsys
    ):
        import json

        from repro.batch import Campaign, CampaignResult, RunSummary

        # A partial with one deterministic error (index 0) and one
        # WorkerError (index 1). Plain --resume auto-retries only the
        # WorkerError and keeps the deterministic failure (exit 1);
        # --retry-failed forces that one too (exit 0).
        campaign = Campaign(
            scenarios=("cut_in", "vehicle_following"), stride=0.5
        )
        specs = campaign.runs()
        records = [
            RunSummary(
                index=0, scenario=specs[0].scenario, seed=specs[0].seed,
                fpr=specs[0].fpr, variant=specs[0].variant, collided=False,
                error="SimulationError: since-fixed bug",
            ),
            RunSummary(
                index=1, scenario=specs[1].scenario, seed=specs[1].seed,
                fpr=specs[1].fpr, variant=specs[1].variant, collided=False,
                error="WorkerError: BrokenProcessPool",
            ),
        ]
        path = tmp_path / "partial.jsonl"
        CampaignResult(campaign, records).save_jsonl(path)

        assert main(["campaign", "--resume", str(path)]) == 1
        out = capsys.readouterr()
        assert "1 of 2 runs already recorded" in out.out  # WorkerError purged
        reloaded = CampaignResult.load_jsonl(path)
        assert [s.index for s in reloaded.failures()] == [0]
        assert reloaded.summaries[1].ok  # the crashed cell re-ran

        assert main(["campaign", "--resume", str(path), "--retry-failed"]) == 0
        out = capsys.readouterr()
        assert "0 of 2 runs already recorded" not in out.out
        final = CampaignResult.load_jsonl(path)
        assert not final.failures()
        assert final.is_complete

    @pytest.mark.slow
    def test_campaign_jsonl_round_trip(self, tmp_path, capsys):
        from repro.batch import CampaignResult

        path = tmp_path / "campaign.jsonl"
        code = main(
            ["campaign", "cut_in", "--stride", "0.5", "--out", str(path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1 runs in" in out
        assert f"campaign written to {path}" in out

        result = CampaignResult.load_jsonl(path)
        assert len(result) == 1
        summary = result.summaries[0]
        assert summary.scenario == "cut_in"
        assert summary.ok and not summary.collided
        assert summary.max_fpr >= 1.0


    def test_out_leaves_a_finished_heartbeat_sidecar(self, tmp_path):
        import json

        path = tmp_path / "campaign.jsonl"
        code = main([
            "campaign", "cut_in", "vehicle_following", "--stride", "0.5",
            "--shard", "1/2", "--out", str(path), "--quiet",
        ])
        assert code == 0
        beat = json.loads((tmp_path / "campaign.jsonl.heartbeat").read_text())
        assert beat["kind"] == "heartbeat"
        assert beat["rows_done"] == beat["rows_total"] == 1
        assert beat["shard"] == {"index": 1, "count": 2}


class TestCampaignMergeCommand:
    def _result(self, campaign, summaries, shard=None):
        from repro.batch import CampaignResult

        return CampaignResult(campaign, summaries, shard=shard)

    def _summary(self, campaign, index):
        from repro.batch import RunSummary

        spec = campaign.runs()[index]
        return RunSummary(
            index=spec.index,
            scenario=spec.scenario,
            seed=spec.seed,
            fpr=spec.fpr,
            variant=spec.variant,
            collided=False,
            max_fpr=2.0,
            max_total_fpr=4.0,
            fraction_of_provision=4.0 / 90.0,
            ticks=10,
            duration=5.0,
        )

    def _campaign(self):
        from repro.batch import Campaign

        return Campaign(scenarios=("cut_in",), seeds=(0, 1), fprs=(30.0,))

    def test_merge_round_trip(self, tmp_path, capsys):
        from repro.batch import CampaignResult

        campaign = self._campaign()
        paths = []
        for index in range(2):
            path = tmp_path / f"part{index}.jsonl"
            self._result(
                campaign, [self._summary(campaign, index)], shard=(index, 2)
            ).save_jsonl(path)
            paths.append(str(path))
        out = tmp_path / "merged.jsonl"
        assert main(["campaign-merge", *paths, "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "2 of 2 runs present" in text
        merged = CampaignResult.load_jsonl(out)
        assert merged.is_complete and merged.shard is None

    def test_merge_grid_mismatch_exits_nonzero(self, tmp_path, capsys):
        from repro.batch import Campaign

        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        campaign = self._campaign()
        other = Campaign(scenarios=("cut_in",), seeds=(0, 1), fprs=(5.0,))
        self._result(campaign, [self._summary(campaign, 0)]).save_jsonl(a)
        self._result(other, [self._summary(other, 1)]).save_jsonl(b)
        assert main(["campaign-merge", str(a), str(b)]) == 2
        assert "different grids" in capsys.readouterr().err

    def test_merge_overlap_exits_nonzero(self, tmp_path, capsys):
        campaign = self._campaign()
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        self._result(campaign, [self._summary(campaign, 0)]).save_jsonl(a)
        self._result(campaign, [self._summary(campaign, 0)]).save_jsonl(b)
        assert main(["campaign-merge", str(a), str(b)]) == 2
        assert "overlapping run index" in capsys.readouterr().err

    def test_incomplete_merge_exits_one(self, tmp_path, capsys):
        campaign = self._campaign()
        a = tmp_path / "a.jsonl"
        self._result(campaign, [self._summary(campaign, 0)]).save_jsonl(a)
        assert main(["campaign-merge", str(a)]) == 1
        assert "incomplete merge" in capsys.readouterr().err

    def test_merge_missing_file_exits_nonzero(self, tmp_path, capsys):
        assert main(["campaign-merge", str(tmp_path / "nope.jsonl")]) == 2
        assert "error" in capsys.readouterr().err

    def test_merge_unwritable_out_exits_nonzero(self, tmp_path, capsys):
        campaign = self._campaign()
        a = tmp_path / "a.jsonl"
        self._result(
            campaign,
            [self._summary(campaign, 0), self._summary(campaign, 1)],
        ).save_jsonl(a)
        target = tmp_path / "no" / "dir" / "m.jsonl"
        assert main(["campaign-merge", str(a), "--out", str(target)]) == 2
        assert "cannot write" in capsys.readouterr().err


class TestRecordedHeaders:
    """Headers read back by --resume, campaign-merge and --from-campaign."""

    @staticmethod
    def _campaign():
        from repro.batch import Campaign
        from repro.batch.campaign import ParamVariant
        from repro.core.parameters import ZhuyiParams

        return Campaign(
            scenarios=("cut_in", "vehicle_following"),
            stride=0.5,
            variants=(ParamVariant("paper", ZhuyiParams()),),
        )

    @staticmethod
    def _rewrite_header(path, edit):
        lines = path.read_text().splitlines(keepends=True)
        header = json.loads(lines[0])
        edit(header["grid"])
        path.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))

    @staticmethod
    def _run_lines(path):
        return [
            line for line in path.read_text().splitlines()
            if '"kind": "run"' in line
        ]

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda grid: grid["variants"][0]["params"].update(warp=1.0),
                "malformed campaign header",
            ),
            (lambda grid: grid.pop("stride"), "KeyError: 'stride'"),
            (
                lambda grid: grid["variants"][0]["params"].update(
                    gate_lateral=False
                ),
                "'gate_lateral' is retired",
            ),
            (
                lambda grid: grid["variants"][0]["params"].update(
                    ego_speed_cap=25.0
                ),
                "'ego_speed_cap' is retired",
            ),
        ],
        ids=["unknown-param", "no-stride", "gate-off", "speed-cap"],
    )
    @pytest.mark.parametrize("command", ["resume", "merge", "replay"])
    def test_bad_header_exits_two(
        self, tmp_path, capsys, edit, message, command
    ):
        from repro.batch import CampaignResult

        path = tmp_path / "c.jsonl"
        CampaignResult(self._campaign(), []).save_jsonl(path)
        self._rewrite_header(path, edit)
        argv = {
            "resume": ["campaign", "--resume", str(path)],
            "merge": ["campaign-merge", str(path)],
            "replay": [
                "replay", "--store", str(tmp_path / "traces"),
                "--from-campaign", str(path),
            ],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.slow
    def test_file_with_retired_params_resumes_and_merges(self, tmp_path):
        # A file whose header carries the full ZhuyiParams of the
        # version that still had gate_lateral and ego_speed_cap, cut
        # after its first run line.
        from repro.batch import CampaignRunner
        from repro.store import TraceStore

        campaign = self._campaign()
        store = tmp_path / "traces"
        fresh = tmp_path / "fresh.jsonl"
        CampaignRunner(store=TraceStore(store)).run(campaign, out=fresh)
        fresh_runs = self._run_lines(fresh)
        assert len(fresh_runs) == 2

        old = tmp_path / "old.jsonl"
        header = fresh.read_text().splitlines()[0]
        old.write_text(header + "\n" + fresh_runs[0] + "\n")
        self._rewrite_header(
            old,
            lambda grid: grid["variants"][0]["params"].update(
                gate_lateral=True, ego_speed_cap=None
            ),
        )
        part = tmp_path / "old_part.jsonl"
        part.write_text(old.read_text())

        assert main(
            ["campaign", "--resume", str(old), "--store", str(store), "--quiet"]
        ) == 0
        assert '"gate_lateral": true' in old.read_text().splitlines()[0]
        assert self._run_lines(old) == fresh_runs

        shard = tmp_path / "shard.jsonl"
        CampaignRunner(store=TraceStore(store)).run(
            campaign, out=shard, shard=(1, 2)
        )
        merged = tmp_path / "merged.jsonl"
        assert main(
            ["campaign-merge", str(part), str(shard), "--out", str(merged)]
        ) == 0
        assert self._run_lines(merged) == fresh_runs


class TestReplayCommand:
    @pytest.fixture(scope="class")
    def recorded(self, tmp_path_factory):
        """A two-cell campaign recorded into a trace store."""
        root = tmp_path_factory.mktemp("recorded")
        code = main(
            [
                "campaign", "cut_in", "vehicle_following", "--seeds", "1",
                "--fprs", "30",
                "--stride", "0.5", "--store", str(root / "traces"),
                "--out", str(root / "rec.jsonl"), "--quiet",
            ]
        )
        assert code == 0
        return root

    @pytest.mark.parametrize(
        "flags",
        [
            [
                "--stride", "0.25", "--backend", "scalar",
                "--miss-rate", "0.2",
            ],
            ["--stride", "0.25"],
            ["--backend", "scalar"],
            ["--miss-rate", "0.2"],
            ["--position-noise", "0.3"],
            ["--noise-seed", "7"],
        ],
    )
    def test_from_campaign_rejects_settings_it_would_ignore(
        self, recorded, tmp_path, capsys, flags
    ):
        # The recorded campaign fixes stride, backend and noise; a flag
        # that the replay would silently not apply is refused instead.
        out = tmp_path / "rep.jsonl"
        code = main(
            [
                "replay", "--store", str(recorded / "traces"),
                "--from-campaign", str(recorded / "rec.jsonl"),
                *flags, "--out", str(out),
            ]
        )
        assert code == 2
        assert "error: --from-campaign" in capsys.readouterr().err
        assert not out.exists()

    def test_workers_write_the_same_run_lines(self, recorded, tmp_path):
        runs = {}
        for workers in ("1", "2"):
            out = tmp_path / f"workers{workers}.jsonl"
            code = main(
                [
                    "replay", "--store", str(recorded / "traces"),
                    "--from-campaign", str(recorded / "rec.jsonl"),
                    "--online", "cv", "--online", "maneuver:percentile",
                    "--workers", workers, "--out", str(out), "--quiet",
                ]
            )
            assert code == 0
            lines = out.read_text().splitlines()
            footer = json.loads(lines[-1])
            assert footer["kind"] == "completed"
            assert footer["workers"] == int(workers)
            runs[workers] = [line for line in lines if '"kind": "run"' in line]
        assert len(runs["1"]) == 4
        assert runs["1"] == runs["2"]

    def test_workers_below_one_exit_two(self, recorded, tmp_path, capsys):
        out = tmp_path / "rep.jsonl"
        code = main(
            [
                "replay", "--store", str(recorded / "traces"),
                "--from-campaign", str(recorded / "rec.jsonl"),
                "--workers", "0", "--out", str(out),
            ]
        )
        assert code == 2
        assert "worker count" in capsys.readouterr().err
        assert not out.exists()


class TestFuzzCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["fuzz", "cut_out", "--out", "d"])
        assert args.family == "cut_out"
        assert args.out == "d"
        # Population/generations/elite/tournament/stride stay None so
        # --smoke (or the full preset) can fill them in.
        assert args.population is None
        assert args.generations is None
        assert args.stride is None
        assert args.fitness == "latency"
        assert args.mutation_scale == 0.15
        assert args.seed == 0
        assert args.workers == 1
        assert args.archive_size == 5
        assert not args.smoke

    def test_parser_smoke_and_overrides(self):
        args = build_parser().parse_args(
            ["fuzz", "vehicle_following", "--out", "d", "--smoke",
             "--population", "6", "--fitness", "mrf_margin",
             "--backend", "crosstrace"]
        )
        assert args.smoke
        assert args.population == 6
        assert args.fitness == "mrf_margin"
        assert args.backend == "crosstrace"

    def test_parser_rejects_unknown_family(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fuzz", "warp", "--out", "d"])

    def test_parser_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fuzz", "cut_out"])

    def test_bad_config_exits_two(self, tmp_path, capsys):
        code = main(
            ["fuzz", "cut_out", "--out", str(tmp_path), "--smoke",
             "--elite", "10"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_bad_fprs_exits_two(self, tmp_path, capsys):
        code = main(
            ["fuzz", "cut_out", "--out", str(tmp_path), "--smoke",
             "--fprs", "abc"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_unrunnable_fprs_exit_two(self, tmp_path, capsys):
        out = tmp_path / "fuzz"
        code = main(
            ["fuzz", "cut_out", "--out", str(out), "--smoke", "--fprs", "0"]
        )
        assert code == 2
        assert "FPR must be within" in capsys.readouterr().err
        assert not out.exists()

    def test_campaign_fuzz_archive_unreadable_exits_two(
        self, tmp_path, capsys
    ):
        code = main(
            ["campaign", "cut_in",
             "--fuzz-archive", str(tmp_path / "nope.json")]
        )
        assert code == 2
        assert "unreadable" in capsys.readouterr().err

    def test_fuzz_archive_registers_and_reports(
        self, tmp_path, capsys, monkeypatch
    ):
        import json

        from repro.cli import _load_fuzz_archives
        from repro.scenarios.fuzzed import (
            FUZZ_FAMILIES,
            RECIPES_ENV,
            fuzzed_recipes,
            register_fuzzed,
        )

        monkeypatch.delenv(RECIPES_ENV, raising=False)
        name = register_fuzzed(
            "cut_out", FUZZ_FAMILIES["cut_out"].space.defaults()
        )
        path = tmp_path / "archive.json"
        path.write_text(json.dumps(fuzzed_recipes([name])))
        assert _load_fuzz_archives([str(path)]) is None
        out = capsys.readouterr().out
        assert "1 scenario(s) registered" in out
        # Later workers resolve the same names through the env var.
        assert str(path) in os.environ[RECIPES_ENV]
