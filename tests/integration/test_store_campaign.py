"""Integration: simulate-once campaigns and store-only replay.

The acceptance bar for the trace store, end to end with real
simulations:

* a campaign run against a warm store produces a JSONL byte-identical
  to the cold run that filled it — across the scalar, batched and
  crosstrace backends, under sharding, kill/resume, and stochastic
  perception;
* ``repro replay`` reproduces a recorded campaign's estimation rows
  from the store alone, without ever touching the simulator;
* CLI round trip: ``repro campaign --store`` warm/cold parity and
  ``repro replay --from-campaign`` row parity.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.batch import Campaign, CampaignRunner, ParamVariant
from repro.perception.noise import PerceptionNoise
from repro.store import (
    ReplayPlan,
    ReplayService,
    ReplayVariant,
    TraceStore,
)

REPO = Path(__file__).resolve().parents[2]


class Killed(Exception):
    """Raised by a progress hook to simulate a mid-campaign crash."""


def grid(**overrides) -> Campaign:
    settings = dict(
        scenarios=("cut_out", "cut_in"),
        seeds=(0, 1),
        fprs=(30.0,),
        stride=0.5,
    )
    settings.update(overrides)
    return Campaign(**settings)


def run_lines(path) -> list[str]:
    return [
        line
        for line in Path(path).read_text().splitlines()
        if '"kind": "run"' in line
    ]


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory):
    """A store filled by one cold campaign run, plus that run's file."""
    root = tmp_path_factory.mktemp("warm")
    store = TraceStore(root / "store")
    cold = root / "cold.jsonl"
    CampaignRunner(workers=1, store=store).run(grid(), out=cold)
    return store, cold


@pytest.mark.slow
class TestWarmColdParity:
    def test_warm_run_lines_byte_identical(self, warm_store, tmp_path):
        store, cold = warm_store
        warm = tmp_path / "warm.jsonl"
        CampaignRunner(workers=1, store=store).run(grid(), out=warm)
        assert run_lines(warm) == run_lines(cold)

    @pytest.mark.parametrize("backend", ["scalar", "crosstrace"])
    def test_other_backends_hit_the_same_bundles(
        self, warm_store, tmp_path, backend
    ):
        # The store key excludes the evaluation backend: one recorded
        # trace serves all three engines, and each warm run matches its
        # own cold run byte for byte.
        store, _ = warm_store
        campaign = grid(backend=backend)
        cold = tmp_path / "cold.jsonl"
        warm = tmp_path / "warm.jsonl"
        fresh = TraceStore(tmp_path / "fresh")
        CampaignRunner(workers=1, store=fresh).run(campaign, out=cold)
        CampaignRunner(workers=1, store=store).run(campaign, out=warm)
        assert run_lines(warm) == run_lines(cold)

    def test_noisy_campaign_parity(self, warm_store, tmp_path):
        # Stochastic perception is evaluation-time: the recorded trace
        # is noise-free, so a warm noisy run must equal the cold one.
        store, _ = warm_store
        campaign = grid(
            noise=PerceptionNoise(
                miss_rate=0.1, position_noise=0.2, seed=7
            )
        )
        cold = tmp_path / "cold.jsonl"
        warm = tmp_path / "warm.jsonl"
        CampaignRunner(
            workers=1, store=TraceStore(tmp_path / "fresh")
        ).run(campaign, out=cold)
        CampaignRunner(workers=1, store=store).run(campaign, out=warm)
        assert run_lines(warm) == run_lines(cold)

    def test_sharded_warm_runs_union_to_cold(self, warm_store, tmp_path):
        store, cold = warm_store
        lines = []
        for index in range(2):
            part = tmp_path / f"part{index}.jsonl"
            CampaignRunner(workers=1, store=store).run(
                grid(), out=part, shard=(index, 2)
            )
            lines.extend(run_lines(part))
        lines.sort(key=lambda line: json.loads(line)["index"])
        assert lines == run_lines(cold)

    def test_parallel_workers_reuse_the_store(self, warm_store, tmp_path):
        store, cold = warm_store
        warm = tmp_path / "warm.jsonl"
        CampaignRunner(workers=2, store=store).run(grid(), out=warm)
        assert run_lines(warm) == run_lines(cold)


@pytest.mark.slow
class TestKillResumeWithStore:
    def test_resumed_warm_file_matches_cold(self, warm_store, tmp_path):
        store, cold = warm_store
        path = tmp_path / "killed.jsonl"

        def hook(done, total, summary):
            if done >= 2:
                raise Killed()

        with pytest.raises(Killed):
            CampaignRunner(workers=1, store=store).run(
                grid(), hook, out=path
            )
        resumed = CampaignRunner(workers=1, store=store).resume(path)
        assert resumed.is_complete
        assert run_lines(path) == run_lines(cold)

    def test_killed_cold_run_keeps_recorded_bundles(self, tmp_path):
        # A crash after two cells leaves their traces in the store; the
        # resumed run only re-simulates the missing cells.
        store = TraceStore(tmp_path / "store")

        def hook(done, total, summary):
            if done >= 2:
                raise Killed()

        path = tmp_path / "killed.jsonl"
        with pytest.raises(Killed):
            CampaignRunner(workers=1, store=store).run(
                grid(), hook, out=path
            )
        assert len(store.keys()) >= 2
        resumed = CampaignRunner(workers=1, store=store).resume(path)
        assert resumed.is_complete
        assert len(store.keys()) == 4


@pytest.mark.slow
class TestReplayFromStoreAlone:
    def test_replay_reproduces_campaign_rows(self, warm_store):
        store, cold = warm_store
        campaign = grid()
        plan = ReplayPlan.from_campaign(campaign)
        rows = ReplayService(store=store).run(plan)
        recorded = [json.loads(line) for line in run_lines(cold)]
        assert len(rows) == len(recorded)
        for row, campaign_row in zip(rows, recorded):
            for field, value in campaign_row.items():
                if field == "kind":
                    continue
                assert row[field] == value, field

    def test_replay_variants_change_the_answer(self, warm_store):
        # An online predictor variant genuinely re-estimates: its rows
        # differ from the offline campaign rows on the same traces.
        store, cold = warm_store
        plan = ReplayPlan.from_campaign(
            grid(),
            variants=(
                ReplayVariant(
                    name="cv-online", predictor="cv", aggregator="max"
                ),
            ),
        )
        rows = ReplayService(store=store).run(plan)
        recorded = [json.loads(line) for line in run_lines(cold)]
        assert len(rows) == len(recorded)
        assert all(row["error"] is None for row in rows)
        assert any(
            row["max_fpr"] != campaign_row["max_fpr"]
            for row, campaign_row in zip(rows, recorded)
        )


    def test_closed_loop_online_variant_row_equals_replay_row(
        self, warm_store
    ):
        # A campaign evaluates online variants on the trace it just
        # simulated exactly as a replay does on the recorded one.
        store, _ = warm_store
        campaign = grid(
            scenarios=("cut_out",),
            seeds=(0,),
            variants=(
                ParamVariant("default"),
                ParamVariant("cv-max", predictor="cv", aggregator="max"),
            ),
        )
        simulated = CampaignRunner(workers=1).run(campaign).summaries
        rows = ReplayService(store=store).run(
            ReplayPlan.from_campaign(campaign)
        )
        assert simulated[1].ok and simulated[1].max_fpr is not None
        for summary, row in zip(simulated, rows):
            assert {
                key: value
                for key, value in row.items()
                if key not in ("kind", "predictor", "aggregator")
            } == summary.to_dict()
        assert (rows[1]["predictor"], rows[1]["aggregator"]) == ("cv", "max")


@pytest.mark.slow
class TestCliStoreWorkflow:
    def _repro(self, *argv, cwd):
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv],
            capture_output=True,
            text=True,
            cwd=cwd,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        )

    def test_campaign_store_then_replay(self, tmp_path):
        campaign_args = [
            "campaign", "cut_out",
            "--seeds", "2",
            "--fprs", "30",
            "--stride", "0.5",
            "--store", str(tmp_path / "store"),
            "--quiet",
        ]
        cold = self._repro(
            *campaign_args, "--out", str(tmp_path / "cold.jsonl"),
            cwd=tmp_path,
        )
        assert cold.returncode == 0, cold.stderr
        warm = self._repro(
            *campaign_args, "--out", str(tmp_path / "warm.jsonl"),
            cwd=tmp_path,
        )
        assert warm.returncode == 0, warm.stderr
        assert run_lines(tmp_path / "warm.jsonl") == run_lines(
            tmp_path / "cold.jsonl"
        )

        replay = self._repro(
            "replay",
            "--store", str(tmp_path / "store"),
            "--from-campaign", str(tmp_path / "cold.jsonl"),
            "--out", str(tmp_path / "replay.jsonl"),
            "--quiet",
            cwd=tmp_path,
        )
        assert replay.returncode == 0, replay.stderr
        recorded = [
            json.loads(line)
            for line in run_lines(tmp_path / "cold.jsonl")
        ]
        replayed = [
            json.loads(line)
            for line in run_lines(tmp_path / "replay.jsonl")
        ]
        assert len(replayed) == len(recorded)
        for row, campaign_row in zip(replayed, recorded):
            assert row["max_fpr"] == campaign_row["max_fpr"]
            assert row["variant"] == campaign_row["variant"]
        heartbeat = json.loads(
            (tmp_path / "replay.jsonl.heartbeat").read_text()
        )
        assert heartbeat["rows_done"] == heartbeat["rows_total"] == 2
