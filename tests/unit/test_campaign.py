"""Campaign spec, result store and aggregation (no simulations here)."""

import json

import pytest

from repro.batch import (
    Campaign,
    CampaignResult,
    ParamVariant,
    RunSummary,
    campaign_table1,
    render_campaign_table,
    summarize_failures,
)
from repro.core.parameters import ZhuyiParams
from repro.errors import ConfigurationError, TraceError

def summary(
    index: int,
    scenario: str = "cut_in",
    seed: int = 0,
    fpr: float = 30.0,
    collided: bool = False,
    max_fpr: float = 2.0,
    error: str | None = None,
) -> RunSummary:
    if collided or error:
        return RunSummary(
            index=index,
            scenario=scenario,
            seed=seed,
            fpr=fpr,
            variant="default",
            collided=collided,
            collision_time=5.0 if collided else None,
            error=error,
        )
    return RunSummary(
        index=index,
        scenario=scenario,
        seed=seed,
        fpr=fpr,
        variant="default",
        collided=False,
        max_fpr=max_fpr,
        max_total_fpr=max_fpr + 2.0,
        fraction_of_provision=(max_fpr + 2.0) / 90.0,
        camera_max_fpr={"front_120": max_fpr, "left": 1.0, "right": 1.0},
        ticks=100,
        duration=30.0,
    )


class TestCampaignSpec:
    def test_grid_size_and_order(self):
        campaign = Campaign(
            scenarios=("cut_out", "cut_in"),
            seeds=(0, 1),
            fprs=(5.0, 30.0),
        )
        specs = campaign.runs()
        assert campaign.size == len(specs) == 8
        assert [spec.index for spec in specs] == list(range(8))
        # scenario-major, then seed, then fpr.
        assert (specs[0].scenario, specs[0].seed, specs[0].fpr) == (
            "cut_out", 0, 5.0,
        )
        assert (specs[1].scenario, specs[1].seed, specs[1].fpr) == (
            "cut_out", 0, 30.0,
        )
        assert specs[-1].scenario == "cut_in"

    def test_variant_expansion(self):
        strict = ZhuyiParams(c1=0.8, c2=0.8)
        campaign = Campaign(
            scenarios=("cut_in",),
            variants=(ParamVariant("default"), ParamVariant("strict", strict)),
        )
        specs = campaign.runs()
        assert [spec.variant for spec in specs] == ["default", "strict"]
        assert specs[0].resolved_params() == ZhuyiParams()
        assert specs[1].resolved_params() == strict

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            Campaign(scenarios=("warp",))

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            Campaign(scenarios=())
        with pytest.raises(ConfigurationError):
            Campaign(scenarios=("cut_in",), seeds=())
        with pytest.raises(ConfigurationError):
            Campaign(scenarios=("cut_in",), fprs=())

    def test_duplicate_variant_names_rejected(self):
        with pytest.raises(ConfigurationError):
            Campaign(
                scenarios=("cut_in",),
                variants=(ParamVariant("a"), ParamVariant("a")),
            )

    def test_duplicate_grid_entries_rejected(self):
        with pytest.raises(ConfigurationError):
            Campaign(scenarios=("cut_in", "cut_in"))
        with pytest.raises(ConfigurationError):
            Campaign(scenarios=("cut_in",), seeds=(0, 0))
        with pytest.raises(ConfigurationError):
            Campaign(scenarios=("cut_in",), fprs=(30.0, 30.0))

    def test_bad_stride_rejected(self):
        with pytest.raises(ConfigurationError):
            Campaign(scenarios=("cut_in",), stride=0.0)

    def test_unrunnable_fpr_rejected(self, unrunnable_fpr):
        # The simulator runs cameras within [MIN_FPR, MAX_FPR]; a grid
        # rate outside it would run at another rate under its name.
        with pytest.raises(ConfigurationError, match="FPR must be within"):
            Campaign(
                scenarios=("vehicle_following",), fprs=(30.0, unrunnable_fpr)
            )

    def test_grid_dict_round_trip(self):
        campaign = Campaign(
            scenarios=("cut_out", "cut_in"),
            seeds=(0, 3),
            fprs=(5.0, 30.0),
            variants=(ParamVariant("strict", ZhuyiParams(c1=0.8)),),
            stride=0.1,
        )
        assert Campaign.from_dict(campaign.to_dict()) == campaign

    def _retired_header(self, **retired):
        campaign = Campaign(
            scenarios=("cut_in",),
            variants=(ParamVariant("strict", ZhuyiParams(c1=0.8)),),
        )
        data = campaign.to_dict()
        data["variants"][0]["params"].update(retired)
        return campaign, data

    def test_headers_with_retired_params_still_load(self):
        # Files written while ZhuyiParams had gate_lateral and
        # ego_speed_cap carry them at the one value every run used.
        campaign, data = self._retired_header(
            gate_lateral=True, ego_speed_cap=None
        )
        assert Campaign.from_dict(data) == campaign

    @pytest.mark.parametrize(
        "key, value",
        [("gate_lateral", False), ("ego_speed_cap", 25.0), ("gate_lateral", 1)],
    )
    def test_retired_params_at_other_values_refused(self, key, value):
        _, data = self._retired_header(**{key: value})
        with pytest.raises(ConfigurationError, match=key):
            Campaign.from_dict(data)


class TestShardPartition:
    def campaign(self) -> Campaign:
        return Campaign(
            scenarios=("cut_out", "cut_in"),
            seeds=(0, 1),
            fprs=(5.0, 30.0),
            variants=(
                ParamVariant("default"),
                ParamVariant("strict", ZhuyiParams(c1=0.8)),
            ),
        )

    @pytest.mark.parametrize("count", [1, 2, 3, 5, 8])
    def test_union_of_shards_is_full_grid(self, count):
        campaign = self.campaign()
        indices = []
        for index in range(count):
            indices.extend(spec.index for spec in campaign.shard(index, count))
        # Union covers every run, no overlaps, regardless of shard count.
        assert sorted(indices) == [spec.index for spec in campaign.runs()]
        assert len(indices) == len(set(indices))

    def test_shards_keep_variants_together(self):
        # All variants of a (scenario, seed, fpr) cell stay on one
        # shard — the cross-variant trace cache survives sharding.
        campaign = self.campaign()
        for count in (2, 3):
            for index in range(count):
                cells: dict[tuple, int] = {}
                for spec in campaign.shard(index, count):
                    key = (spec.scenario, spec.seed, spec.fpr)
                    cells[key] = cells.get(key, 0) + 1
                assert all(n == len(campaign.variants) for n in cells.values())

    def test_shard_specs_match_full_grid_specs(self):
        campaign = self.campaign()
        by_index = {spec.index: spec for spec in campaign.runs()}
        for spec in campaign.shard(1, 3):
            assert spec == by_index[spec.index]

    def test_single_shard_is_whole_grid(self):
        campaign = self.campaign()
        assert campaign.shard(0, 1) == campaign.runs()

    def test_shard_validation(self):
        campaign = self.campaign()
        with pytest.raises(ConfigurationError):
            campaign.shard(0, 0)
        with pytest.raises(ConfigurationError):
            campaign.shard(2, 2 + campaign.size)  # more shards than cells
        with pytest.raises(ConfigurationError):
            campaign.shard(3, 3)
        with pytest.raises(ConfigurationError):
            campaign.shard(-1, 3)


class TestMerge:
    def campaign(self) -> Campaign:
        return Campaign(scenarios=("cut_in",), seeds=(0, 1), fprs=(30.0,))

    def test_merge_unions_shard_summaries(self):
        campaign = self.campaign()
        part0 = CampaignResult(
            campaign, [summary(0, seed=0)], workers=2, elapsed=1.0,
            shard=(0, 2),
        )
        part1 = CampaignResult(
            campaign, [summary(1, seed=1)], workers=4, elapsed=2.0,
            shard=(1, 2),
        )
        merged = CampaignResult.merge([part1, part0])
        assert [s.index for s in merged.summaries] == [0, 1]
        assert merged.is_complete
        assert merged.shard is None
        assert merged.elapsed == pytest.approx(3.0)
        assert merged.workers == 4

    def test_merge_rejects_mismatched_grids(self):
        other = Campaign(scenarios=("cut_in",), seeds=(0, 1), fprs=(5.0,))
        with pytest.raises(ConfigurationError):
            CampaignResult.merge(
                [
                    CampaignResult(self.campaign(), [summary(0)]),
                    CampaignResult(other, [summary(1, seed=1, fpr=5.0)]),
                ]
            )

    def test_merge_rejects_overlapping_indices(self):
        campaign = self.campaign()
        with pytest.raises(ConfigurationError):
            CampaignResult.merge(
                [
                    CampaignResult(campaign, [summary(0)]),
                    CampaignResult(campaign, [summary(0)]),
                ]
            )

    def test_merge_rejects_out_of_grid_index(self):
        campaign = self.campaign()
        with pytest.raises(ConfigurationError):
            CampaignResult.merge(
                [CampaignResult(campaign, [summary(99, seed=1)])]
            )

    def test_merge_rejects_nothing(self):
        with pytest.raises(ConfigurationError):
            CampaignResult.merge([])

    def test_partial_merge_reports_missing(self):
        merged = CampaignResult.merge(
            [CampaignResult(self.campaign(), [summary(0)])]
        )
        assert not merged.is_complete
        assert [spec.index for spec in merged.missing_runs()] == [1]


class TestResultStore:
    def campaign(self) -> Campaign:
        return Campaign(scenarios=("cut_in",), seeds=(0, 1), fprs=(30.0,))

    def test_summaries_sorted_by_index(self):
        result = CampaignResult(
            self.campaign(), [summary(1, seed=1), summary(0, seed=0)]
        )
        assert [s.index for s in result.summaries] == [0, 1]

    def test_failure_and_collision_queries(self):
        result = CampaignResult(
            self.campaign(),
            [
                summary(0, seed=0, collided=True),
                summary(1, seed=1, error="SimulationError: boom"),
            ],
        )
        assert len(result.collisions()) == 1
        assert len(result.failures()) == 1
        assert not result.failures()[0].ok
        assert "boom" in summarize_failures(result)

    def test_scenario_rollups_skip_bad_runs(self):
        result = CampaignResult(
            self.campaign(),
            [
                summary(0, seed=0, max_fpr=4.0),
                summary(1, seed=1, collided=True),
            ],
        )
        assert result.scenario_max_fpr("cut_in") == pytest.approx(4.0)
        assert result.scenario_max_fraction("cut_in") == pytest.approx(6.0 / 90.0)

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        result = CampaignResult(
            self.campaign(),
            [summary(0, seed=0), summary(1, seed=1, collided=True)],
            workers=2,
            elapsed=1.25,
        )
        result.save_jsonl(path)
        loaded = CampaignResult.load_jsonl(path)
        assert loaded.campaign == result.campaign
        assert loaded.workers == 2
        assert loaded.elapsed == pytest.approx(1.25)
        assert [s.to_dict() for s in loaded.summaries] == [
            s.to_dict() for s in result.summaries
        ]

    def test_load_rejects_garbage(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(TraceError):
            CampaignResult.load_jsonl(empty)
        headerless = tmp_path / "headerless.jsonl"
        headerless.write_text(json.dumps({"kind": "run"}) + "\n")
        with pytest.raises(TraceError):
            CampaignResult.load_jsonl(headerless)
        notjson = tmp_path / "notjson.jsonl"
        notjson.write_text("{nope\n")
        with pytest.raises(TraceError):
            CampaignResult.load_jsonl(notjson)
        badschema = tmp_path / "badschema.jsonl"
        badschema.write_text(
            json.dumps({"kind": "campaign", "schema": 99, "grid": {}}) + "\n"
        )
        with pytest.raises(TraceError):
            CampaignResult.load_jsonl(badschema)

    def test_complete_file_has_footer_with_metadata(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        CampaignResult(
            self.campaign(),
            [summary(0, seed=0), summary(1, seed=1)],
            workers=3,
            elapsed=2.5,
        ).save_jsonl(path)
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert records[0]["kind"] == "campaign"
        assert records[0]["schema"] == 2
        assert "workers" not in records[0]  # moved to the footer
        assert records[-1] == {
            "kind": "completed", "workers": 3, "elapsed": 2.5,
        }

    def test_partial_file_has_no_footer_and_reports_missing(self, tmp_path):
        path = tmp_path / "partial.jsonl"
        CampaignResult(self.campaign(), [summary(0, seed=0)]).save_jsonl(path)
        kinds = [
            json.loads(line)["kind"]
            for line in path.read_text().splitlines()
        ]
        assert kinds == ["campaign", "run"]
        loaded = CampaignResult.load_jsonl(path)
        assert not loaded.is_complete
        assert [spec.index for spec in loaded.missing_runs()] == [1]

    def test_shard_tag_round_trip(self, tmp_path):
        path = tmp_path / "shard.jsonl"
        CampaignResult(
            self.campaign(), [summary(0, seed=0)], shard=(0, 2)
        ).save_jsonl(path)
        loaded = CampaignResult.load_jsonl(path)
        assert loaded.shard == (0, 2)
        # Shard 0 of 2 owns only run 0, so this file is complete.
        assert loaded.is_complete

    def test_schema1_file_still_loads(self, tmp_path):
        # A PR-1 era file: workers/elapsed in the header, no footer.
        path = tmp_path / "v1.jsonl"
        lines = [
            json.dumps(
                {
                    "kind": "campaign",
                    "schema": 1,
                    "workers": 2,
                    "elapsed": 1.5,
                    "grid": self.campaign().to_dict(),
                }
            ),
            json.dumps({"kind": "run", **summary(0, seed=0).to_dict()}),
            json.dumps({"kind": "run", **summary(1, seed=1).to_dict()}),
        ]
        path.write_text("\n".join(lines) + "\n")
        loaded = CampaignResult.load_jsonl(path)
        assert loaded.workers == 2
        assert loaded.elapsed == pytest.approx(1.5)
        assert loaded.is_complete

    def test_torn_final_line_is_dropped(self, tmp_path):
        # A SIGKILL can land mid-write; the torn trailing line must not
        # poison the file — that run just counts as missing.
        path = tmp_path / "torn.jsonl"
        CampaignResult(
            self.campaign(), [summary(0, seed=0), summary(1, seed=1)]
        ).save_jsonl(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2]) + "\n" + lines[2][: len(lines[2]) // 2])
        loaded = CampaignResult.load_jsonl(path)
        assert [s.index for s in loaded.summaries] == [0]
        assert [spec.index for spec in loaded.missing_runs()] == [1]

    def test_torn_header_or_mid_file_corruption_still_raises(self, tmp_path):
        path = tmp_path / "corrupt.jsonl"
        CampaignResult(
            self.campaign(), [summary(0, seed=0), summary(1, seed=1)]
        ).save_jsonl(path)
        lines = path.read_text().splitlines()
        # Corrupt a *middle* line: that is damage, not a torn tail.
        lines[1] = lines[1][:10]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError):
            CampaignResult.load_jsonl(path)
        # A torn header (single-line file) is unrecoverable too.
        path.write_text('{"kind": "campa')
        with pytest.raises(TraceError):
            CampaignResult.load_jsonl(path)

    def test_newline_terminated_corrupt_final_line_raises(self, tmp_path):
        # The writer emits line+newline in one write, so a malformed
        # final line that still ends in a newline is disk corruption
        # or a bad edit — not a torn kill tail — and must be fatal.
        path = tmp_path / "corrupt_tail.jsonl"
        CampaignResult(
            self.campaign(), [summary(0, seed=0), summary(1, seed=1)]
        ).save_jsonl(path)
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1][: len(lines[-1]) // 2]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError):
            CampaignResult.load_jsonl(path)

    def test_load_records_source_schema_and_footer(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        result = CampaignResult(
            self.campaign(), [summary(0, seed=0), summary(1, seed=1)]
        )
        result.save_jsonl(path)
        loaded = CampaignResult.load_jsonl(path)
        assert loaded.source_schema == 2
        assert loaded.source_footer is True
        assert result.source_schema is None  # never touched disk

    def test_atomic_writer_commits_only_on_finish(self, tmp_path):
        from repro.batch import CampaignWriter

        path = tmp_path / "campaign.jsonl"
        path.write_text("precious original\n")
        # Abandoned rewrite: original untouched, temp cleaned up.
        with CampaignWriter.create(path, self.campaign(), atomic=True) as w:
            w.write(summary(0, seed=0))
        assert path.read_text() == "precious original\n"
        assert not list(tmp_path.glob("*.tmp"))
        # Finished rewrite: renamed over the original.
        with CampaignWriter.create(path, self.campaign(), atomic=True) as w:
            w.write(summary(0, seed=0))
            w.write(summary(1, seed=1))
            w.finish(workers=1, elapsed=0.5)
        assert CampaignResult.load_jsonl(path).is_complete
        assert not list(tmp_path.glob("*.tmp"))

    def test_writer_streams_each_line(self, tmp_path):
        from repro.batch import CampaignWriter

        path = tmp_path / "stream.jsonl"
        with CampaignWriter.create(path, self.campaign()) as writer:
            # Header is on disk before any run completes.
            assert len(path.read_text().splitlines()) == 1
            writer.write(summary(0, seed=0))
            assert len(path.read_text().splitlines()) == 2
        # Closed without finish(): no footer, loadable, resumable.
        loaded = CampaignResult.load_jsonl(path)
        assert len(loaded) == 1 and not loaded.is_complete


class TestAggregation:
    def campaign(self) -> Campaign:
        return Campaign(
            scenarios=("cut_out", "cut_in"), seeds=(0, 1), fprs=(2.0, 30.0)
        )

    def result(self) -> CampaignResult:
        return CampaignResult(
            self.campaign(),
            [
                # cut_out: collides at 2 FPR on one seed, clean at 30.
                summary(0, "cut_out", seed=0, fpr=2.0, collided=True),
                summary(1, "cut_out", seed=0, fpr=30.0, max_fpr=6.0),
                summary(2, "cut_out", seed=1, fpr=2.0, max_fpr=5.0),
                summary(3, "cut_out", seed=1, fpr=30.0, max_fpr=8.0),
                # cut_in: clean everywhere.
                summary(4, "cut_in", seed=0, fpr=2.0, max_fpr=1.5),
                summary(5, "cut_in", seed=0, fpr=30.0, max_fpr=2.0),
                summary(6, "cut_in", seed=1, fpr=2.0, max_fpr=1.5),
                summary(7, "cut_in", seed=1, fpr=30.0, max_fpr=2.5),
            ],
        )

    def test_rows_follow_campaign_order(self):
        rows = campaign_table1(self.result())
        assert [row.scenario for row in rows] == ["cut_out", "cut_in"]

    def test_collided_setting_is_na(self):
        rows = {row.scenario: row for row in campaign_table1(self.result())}
        assert rows["cut_out"].mean_estimates[2.0] is None
        assert rows["cut_out"].mean_estimates[30.0] == pytest.approx(7.0)

    def test_mrf_from_outcomes(self):
        rows = {row.scenario: row for row in campaign_table1(self.result())}
        assert rows["cut_out"].mrf.label == "30"
        assert rows["cut_in"].mrf.label == "<2"

    def test_render_contains_all_scenarios(self):
        text = render_campaign_table(self.result())
        assert "cut_out" in text and "cut_in" in text
        assert "N/A" in text

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigurationError):
            campaign_table1(self.result(), variant="nope")

    def test_fully_failed_rate_carries_no_mrf_evidence(self):
        # Every run at 2 FPR errored: that rate is neither safe nor
        # colliding, and must not become the MRF verdict.
        result = CampaignResult(
            Campaign(scenarios=("cut_in",), seeds=(0,), fprs=(2.0, 30.0)),
            [
                summary(0, "cut_in", seed=0, fpr=2.0, error="Error: boom"),
                summary(1, "cut_in", seed=0, fpr=30.0, max_fpr=2.0),
            ],
        )
        row = campaign_table1(result)[0]
        assert 2.0 not in row.mrf.safe_fprs
        assert 2.0 not in row.mrf.collision_fprs
        assert row.mrf.mrf == 30.0


class TestSweepVariantRoundTrip:
    def test_jsonl_with_custom_sweep_scenario(self, tmp_path):
        from repro.scenarios.catalog import ensure_scenario

        # A non-default sweep speed saved to JSONL must validate on
        # reload even though reload re-runs Campaign validation.
        assert ensure_scenario("cut_out_37mph")
        campaign = Campaign(scenarios=("cut_out_37mph",))
        path = tmp_path / "sweep.jsonl"
        CampaignResult(
            campaign, [summary(0, "cut_out_37mph")]
        ).save_jsonl(path)
        loaded = CampaignResult.load_jsonl(path)
        assert loaded.campaign.scenarios == ("cut_out_37mph",)


class TestBackendSelector:
    def test_default_backend_is_batched(self):
        campaign = Campaign(scenarios=("cut_in",))
        assert campaign.backend == "batched"
        assert all(spec.backend == "batched" for spec in campaign.runs())

    def test_scalar_backend_threads_into_specs(self):
        campaign = Campaign(scenarios=("cut_in",), backend="scalar")
        assert all(spec.backend == "scalar" for spec in campaign.runs())

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            Campaign(scenarios=("cut_in",), backend="gpu")

    def test_backend_round_trips_through_dict(self):
        campaign = Campaign(scenarios=("cut_in",), backend="scalar")
        assert Campaign.from_dict(campaign.to_dict()) == campaign

    def test_headers_without_backend_still_load(self):
        # Pre-backend files carry no "backend" key.
        data = Campaign(scenarios=("cut_in",)).to_dict()
        del data["backend"]
        assert Campaign.from_dict(data).backend == "batched"


class TestRetryFailedCache:
    def test_default_keeps_deterministic_failures(self):
        campaign = Campaign(scenarios=("cut_in",), seeds=(0, 1, 2))
        result = CampaignResult(
            campaign,
            [
                summary(0),
                summary(1, error="SimulationError: boom"),
                summary(2, error="WorkerError: killed"),
            ],
        )
        cache = result.resume_cache()
        assert set(cache) == {0, 1}

    def test_retry_failed_purges_all_errors(self):
        campaign = Campaign(scenarios=("cut_in",), seeds=(0, 1, 2))
        result = CampaignResult(
            campaign,
            [
                summary(0),
                summary(1, error="SimulationError: boom"),
                summary(2, error="WorkerError: killed"),
            ],
        )
        cache = result.resume_cache(retry_failed=True)
        assert set(cache) == {0}

    def test_retry_failed_keeps_collisions(self):
        # A collision is a result, not a failure: never re-executed.
        campaign = Campaign(scenarios=("cut_in",), seeds=(0, 1))
        result = CampaignResult(
            campaign, [summary(0, collided=True), summary(1)]
        )
        assert set(result.resume_cache(retry_failed=True)) == {0, 1}
