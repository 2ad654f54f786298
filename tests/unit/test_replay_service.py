"""Unit tests: the ``repro replay`` plan and streaming service.

Synthetic stored traces keep these fast — the service's whole point is
that nothing here ever simulates. Covered: variant validation, plan
expansion/sharding/serialization, campaign adoption, row production
(offline and online variants, collisions, store misses as failure
rows), the settings validation replay plans share with campaigns, and
the campaign runner's file protocol applied to replay files: kill/resume
(including files written before replays ran on the runner), shards,
``campaign-merge``, workers and the heartbeat sidecar.
"""

import json
from pathlib import Path

import pytest

from repro.batch import CampaignResult, CampaignRunner
from repro.batch.campaign import Campaign, ParamVariant
from repro.cli import main
from repro.core.parameters import ZhuyiParams
from repro.errors import ConfigurationError
from repro.sim.collision import CollisionEvent
from repro.store import (
    ReplayPlan,
    ReplayService,
    ReplayVariant,
    TraceStore,
)

from test_store import synthetic_trace


@pytest.fixture()
def store(tmp_path) -> TraceStore:
    """A store holding three synthetic cut_out cells (no simulation)."""
    store = TraceStore(tmp_path / "store")
    for seed in range(3):
        store.put(
            store.key("cut_out", seed, 30.0), synthetic_trace(seed=seed)
        )
    return store


def default_plan(store, **overrides) -> ReplayPlan:
    settings = dict(stride=0.5, variants=(ReplayVariant(name="default"),))
    settings.update(overrides)
    return ReplayPlan.from_store(store, **settings)


def run_lines(path) -> list[dict]:
    return [
        json.loads(line)
        for line in Path(path).read_text().splitlines()
        if '"kind": "run"' in line
    ]


class TestReplayVariant:
    def test_needs_a_name(self):
        with pytest.raises(ConfigurationError, match="needs a name"):
            ReplayVariant(name="")

    def test_unknown_predictor_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown predictor"):
            ReplayVariant(name="x", predictor="oracle")

    def test_aggregator_without_predictor_rejected(self):
        with pytest.raises(ConfigurationError, match="online variants"):
            ReplayVariant(name="x", aggregator="max")

    def test_bad_percentile_rejected(self):
        with pytest.raises(ConfigurationError, match="bad percentile"):
            ReplayVariant(
                name="x", predictor="cv", aggregator="percentile:high"
            )

    def test_round_trips_through_dict(self):
        variant = ReplayVariant(
            name="tuned",
            params=ZhuyiParams(horizon=2.5),
            predictor="maneuver",
            aggregator="percentile:95",
        )
        assert ReplayVariant.from_dict(variant.to_dict()) == variant


class TestReplayPlan:
    def test_expansion_is_cell_major_with_stamped_indices(self, store):
        plan = ReplayPlan(
            cells=(("cut_out", 0, 30.0), ("cut_out", 1, 30.0)),
            variants=(
                ReplayVariant(name="a"),
                ReplayVariant(name="b"),
            ),
        )
        specs = plan.runs()
        assert [spec.index for spec in specs] == [0, 1, 2, 3]
        assert [(spec.seed, spec.variant) for spec in specs] == [
            (0, "a"), (0, "b"), (1, "a"), (1, "b"),
        ]

    def test_shards_partition_the_jobs(self, store):
        plan = default_plan(store)
        full = {spec.index for spec in plan.runs()}
        parts = [
            {spec.index for spec in plan.shard(i, 2)} for i in range(2)
        ]
        assert parts[0] | parts[1] == full
        assert parts[0] & parts[1] == set()

    def test_too_many_shards_rejected(self, store):
        with pytest.raises(ConfigurationError, match="cannot split"):
            default_plan(store).shard(0, 99)

    def test_duplicate_cells_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate cells"):
            ReplayPlan(
                cells=(("cut_out", 0, 30.0), ("cut_out", 0, 30.0)),
                variants=(ReplayVariant(name="a"),),
            )

    def test_round_trips_through_dict(self, store):
        plan = default_plan(store)
        assert ReplayPlan.from_dict(plan.to_dict()).to_dict() == plan.to_dict()

    def test_from_store_lists_recorded_cells(self, store):
        plan = default_plan(store)
        assert plan.cells == (
            ("cut_out", 0, 30.0),
            ("cut_out", 1, 30.0),
            ("cut_out", 2, 30.0),
        )

    def test_empty_store_rejected(self, tmp_path):
        empty = TraceStore(tmp_path / "empty")
        with pytest.raises(ConfigurationError, match="no replayable"):
            ReplayPlan.from_store(
                empty, variants=(ReplayVariant(name="default"),)
            )

    def test_from_campaign_matches_run_indices(self):
        campaign = Campaign(
            scenarios=("cut_out", "cut_in"),
            seeds=(0, 1),
            fprs=(30.0,),
            stride=0.5,
            variants=(
                ParamVariant("default"),
                ParamVariant("tuned", ZhuyiParams(horizon=2.5)),
            ),
        )
        plan = ReplayPlan.from_campaign(campaign)
        replayed = plan.runs()
        specs = campaign.runs()
        assert len(replayed) == len(specs)
        for replay_spec, spec in zip(replayed, specs):
            assert replay_spec.index == spec.index
            assert (replay_spec.scenario, replay_spec.seed, replay_spec.fpr) == (
                spec.scenario, spec.seed, spec.fpr,
            )
            assert replay_spec.variant == spec.variant
            assert replay_spec.params == spec.params


class TestSharedGridValidation:
    """Replay plans and campaigns reject the same bad settings."""

    CELLS = (("cut_out", 0, 30.0),)

    @pytest.mark.parametrize(
        "settings",
        [
            dict(backend="bogus"),
            dict(provisioned_fpr=0.0),
            dict(provisioned_fpr=-30.0),
        ],
        ids=["unknown-backend", "zero-provision", "negative-provision"],
    )
    def test_replay_plan_rejects_bad_settings(self, settings):
        with pytest.raises(ConfigurationError):
            ReplayPlan(
                cells=self.CELLS,
                variants=(ReplayVariant(name="a"),),
                **settings,
            )

    @pytest.mark.parametrize("kind", ["campaign", "replay"])
    @pytest.mark.parametrize(
        "cameras",
        [(), ("ghost",), ("front_120", "front_120")],
        ids=["empty", "unknown", "duplicate"],
    )
    def test_grids_reject_bad_camera_lists(self, kind, cameras):
        with pytest.raises(ConfigurationError, match="cameras"):
            if kind == "campaign":
                Campaign(scenarios=("cut_out",), cameras=cameras)
            else:
                ReplayPlan(
                    cells=self.CELLS,
                    variants=(ReplayVariant(name="a"),),
                    cameras=cameras,
                )


class TestReplayService:
    def test_offline_rows_from_store_alone(self, store):
        rows = ReplayService(store=store).run(default_plan(store))
        assert len(rows) == 3
        for row in rows:
            assert row["error"] is None
            assert row["max_fpr"] is not None
            assert row["predictor"] is None

    def test_online_variant_rows(self, store):
        plan = default_plan(
            store,
            variants=(
                ReplayVariant(name="cv", predictor="cv"),
                ReplayVariant(
                    name="cv-max", predictor="cv", aggregator="max"
                ),
            ),
        )
        rows = ReplayService(store=store).run(plan)
        assert len(rows) == 6
        assert all(row["error"] is None for row in rows)
        assert {row["predictor"] for row in rows} == {"cv"}
        assert {row["aggregator"] for row in rows} == {None, "max"}

    def test_store_miss_is_a_failure_row_not_a_simulation(self, store):
        plan = ReplayPlan(
            cells=(("cut_out", 0, 30.0), ("cut_out", 99, 30.0)),
            variants=(ReplayVariant(name="default"),),
            stride=0.5,
        )
        rows = ReplayService(store=store).run(plan)
        assert rows[0]["error"] is None
        assert "not in the trace store" in rows[1]["error"]

    def test_collided_cells_report_na(self, store):
        trace = synthetic_trace(seed=7)
        collided = type(trace)(
            scenario=trace.scenario,
            dt=trace.dt,
            steps=trace.steps,
            collisions=[CollisionEvent(time=1.0, actor_id="lead")],
            nominal_fpr=trace.nominal_fpr,
            seed=7,
        )
        store.put(store.key("cut_out", 7, 30.0), collided)
        plan = ReplayPlan(
            cells=(("cut_out", 7, 30.0),),
            variants=(ReplayVariant(name="default"),),
            stride=0.5,
        )
        rows = ReplayService(store=store).run(plan)
        assert rows[0]["collided"] is True
        assert rows[0]["collision_time"] == 1.0
        assert rows[0]["max_fpr"] is None

    def test_streamed_file_has_header_rows_footer(self, store, tmp_path):
        out = tmp_path / "replay.jsonl"
        ReplayService(store=store).run(default_plan(store), out=out)
        records = [
            json.loads(line) for line in out.read_text().splitlines()
        ]
        assert records[0]["kind"] == "replay"
        assert records[0]["plan"]["cells"][0]["scenario"] == "cut_out"
        assert [r["kind"] for r in records[1:-1]] == ["run"] * 3
        assert records[-1]["kind"] == "completed"

    def test_heartbeat_sidecar_tracks_progress(self, store, tmp_path):
        out = tmp_path / "replay.jsonl"
        ReplayService(store=store).run(default_plan(store), out=out)
        beat = json.loads((tmp_path / "replay.jsonl.heartbeat").read_text())
        assert beat["rows_done"] == 3
        assert beat["rows_total"] == 3
        assert beat["shard"] is None

    def test_kill_resume_matches_uninterrupted_run(self, store, tmp_path):
        plan = default_plan(store)
        service = ReplayService(store=store)
        clean, partial = tmp_path / "clean.jsonl", tmp_path / "partial.jsonl"
        service.run(plan, out=clean)
        service.run(plan, out=partial)
        # Kill after the first row: drop the footer and the last two rows.
        lines = partial.read_text().splitlines()
        partial.write_text("\n".join(lines[:2]) + "\n")
        service.run(plan, out=partial, resume=True)
        assert run_lines(partial) == run_lines(clean)

    def test_resume_rejects_a_different_plan(self, store, tmp_path):
        out = tmp_path / "replay.jsonl"
        service = ReplayService(store=store)
        service.run(default_plan(store), out=out)
        other = default_plan(store, stride=0.25)
        with pytest.raises(ConfigurationError, match="different plan"):
            service.run(other, out=out, resume=True)

    def test_sharded_files_union_to_the_full_plan(self, store, tmp_path):
        plan = default_plan(store)
        service = ReplayService(store=store)
        full = tmp_path / "full.jsonl"
        service.run(plan, out=full)
        parts = []
        for i in range(2):
            part = tmp_path / f"part{i}.jsonl"
            service.run(plan, out=part, shard=(i, 2))
            parts.extend(run_lines(part))
            beat = json.loads(Path(str(part) + ".heartbeat").read_text())
            assert beat["shard"] == {"index": i, "count": 2}
        parts.sort(key=lambda row: row["index"])
        assert parts == run_lines(full)

    def test_load_replay_rows_round_trip(self, store, tmp_path):
        out = tmp_path / "replay.jsonl"
        plan = default_plan(store)
        rows = ReplayService(store=store).run(plan, out=out)
        loaded = CampaignResult.load_jsonl(out)
        assert loaded.source_footer
        assert loaded.campaign.to_dict() == plan.to_dict()
        assert [plan.row(summary) for summary in loaded.summaries] == rows


class TestReplayOnTheCampaignRunner:
    """Replay files follow the campaign runner's file protocol."""

    def test_resume_with_a_different_shard_is_refused(self, store, tmp_path):
        plan = default_plan(store)
        service = ReplayService(store=store)
        part0 = tmp_path / "part0.jsonl"
        rows = service.run(plan, out=part0, shard=(0, 2))
        finished = part0.read_bytes()
        with pytest.raises(ConfigurationError, match="shard"):
            service.run(plan, out=part0, shard=(1, 2), resume=True)
        assert part0.read_bytes() == finished
        # Without shard=, resume reads the shard from the header.
        assert service.run(plan, out=part0, resume=True) == rows
        code = main([
            "replay", "--store", str(store.root), "--stride", "0.5",
            "--out", str(part0), "--shard", "1/2", "--resume", "--quiet",
        ])
        assert code == 2
        assert part0.read_bytes() == finished

    def test_parallel_workers_write_identical_run_lines(
        self, store, tmp_path
    ):
        plan = default_plan(
            store,
            variants=(
                ReplayVariant(name="offline"),
                ReplayVariant(name="cv", predictor="cv"),
            ),
        )
        paths = {}
        for workers in (1, 2):
            paths[workers] = tmp_path / f"workers{workers}.jsonl"
            CampaignRunner(workers=workers, store=store).run(
                plan, out=paths[workers]
            )
        assert run_lines(paths[2]) == run_lines(paths[1])
        footer = json.loads(paths[2].read_text().splitlines()[-1])
        assert footer["workers"] == 2

    def test_shards_merge_like_campaign_shards(self, store, tmp_path):
        plan = default_plan(store)
        service = ReplayService(store=store)
        full = tmp_path / "full.jsonl"
        service.run(plan, out=full)
        parts = [tmp_path / f"part{i}.jsonl" for i in range(2)]
        for i, part in enumerate(parts):
            service.run(plan, out=part, shard=(i, 2))
        merged = tmp_path / "merged.jsonl"
        assert main(
            ["campaign-merge", *map(str, parts), "--out", str(merged)]
        ) == 0
        assert run_lines(merged) == run_lines(full)
        assert json.loads(merged.read_text().splitlines()[0])["kind"] == (
            "replay"
        )

    def test_partial_file_in_the_earlier_format_resumes(
        self, store, tmp_path
    ):
        plan = default_plan(store)
        # The header exactly as replay files were written before they
        # ran on the campaign runner.
        header = json.dumps({
            "kind": "replay",
            "schema": 1,
            "plan": {
                "cells": [
                    {"scenario": "cut_out", "seed": seed, "fpr": 30.0}
                    for seed in range(3)
                ],
                "variants": [{
                    "name": "default",
                    "params": None,
                    "predictor": None,
                    "aggregator": None,
                }],
                "stride": 0.5,
                "provisioned_fpr": 30.0,
                "cameras": ["front_120", "left", "right"],
                "backend": "batched",
                "noise": None,
            },
            "store": str(store.root),
        })
        clean = tmp_path / "clean.jsonl"
        ReplayService(store=store).run(plan, out=clean)
        lines = clean.read_text().splitlines()
        assert lines[0] == header
        partial = tmp_path / "partial.jsonl"
        partial.write_text(f"{header}\n{lines[1]}\n{lines[2][:25]}")
        CampaignRunner(store=store).resume(partial)
        assert run_lines(partial) == run_lines(clean)
