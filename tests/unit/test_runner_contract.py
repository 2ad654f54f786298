"""Cell-execution contract, supercell grouping, writer durability.

Pins the ``execute_cell`` "never raises" contract (violations fold into
failure summaries), the :func:`_group_supercells` blocking rules behind
the ``"crosstrace"`` backend, the fsync points that make finished
campaign files power-loss durable, and the aggregation rule that error
rows contribute neither collision evidence nor FPR statistics.
"""

import os

import pytest

from repro.batch import Campaign, CampaignResult, CampaignWriter, RunSpec
from repro.batch.aggregate import campaign_table1
from repro.batch.results import RunSummary
from repro.batch.runner import (
    _group_supercells,
    execute_cell,
    execute_supercell,
)
from repro.perception.sensor import ANALYZED_CAMERAS


def spec(
    index: int = 0,
    scenario: str = "cut_in",
    seed: int = 0,
    fpr: float = 30.0,
    variant: str = "default",
    stride: float = 0.25,
    backend: str = "batched",
) -> RunSpec:
    return RunSpec(
        index=index,
        scenario=scenario,
        seed=seed,
        fpr=fpr,
        variant=variant,
        params=None,
        stride=stride,
        provisioned_fpr=30.0,
        cameras=tuple(ANALYZED_CAMERAS),
        backend=backend,
    )


class TestCellContract:
    def test_empty_cell_is_empty(self):
        assert execute_cell([]) == []

    def test_mixed_cell_coordinates_fold_into_failures(self):
        """Mixed (scenario, seed, fpr) specs: summaries, not a raise."""
        specs = [
            spec(index=0, scenario="cut_in"),
            spec(index=1, scenario="cut_out"),
        ]
        summaries = execute_cell(specs)
        assert [s.index for s in summaries] == [0, 1]
        for s in summaries:
            assert not s.ok
            assert "single (scenario, seed, fpr) cell" in s.error
            assert "ConfigurationError" in s.error

    def test_mixed_strides_fold_into_failures(self):
        """A cell presamples once: per-spec strides must agree."""
        specs = [
            spec(index=0, variant="a", stride=0.25),
            spec(index=1, variant="b", stride=0.1),
        ]
        summaries = execute_cell(specs)
        assert all(not s.ok for s in summaries)
        for s in summaries:
            assert "one stride per cell" in s.error
            assert "0.1" in s.error and "0.25" in s.error

    def test_supercell_folds_contract_violations_per_cell(self):
        """A bad cell inside a block fails alone, in order."""
        bad = [spec(index=0, scenario="cut_in"), spec(index=1, scenario="cut_out")]
        summaries = execute_supercell([bad])
        assert [s.index for s in summaries] == [0, 1]
        assert all("single (scenario, seed, fpr) cell" in s.error for s in summaries)

    def test_evaluation_failure_keeps_duration(self, monkeypatch):
        """A variant whose evaluation dies still reports the trace time.

        The block kernel fails, and its error becomes the variant's row:
        nothing re-runs the variant on its own.
        """
        import repro.batch.runner as runner_module

        def explode(*args, **kwargs):
            raise RuntimeError("kernel exploded")

        monkeypatch.setattr(runner_module, "evaluate_trace_block", explode)
        summaries = execute_cell([spec(index=3)])
        (summary,) = summaries
        assert not summary.ok
        assert "RuntimeError: kernel exploded" in summary.error
        assert summary.duration > 0.0


class TestSupercellGrouping:
    def cells(self, count, variants=("a", "b"), stride=0.25):
        return [
            [
                spec(
                    index=i * len(variants) + vi,
                    seed=i,
                    variant=v,
                    stride=stride,
                )
                for vi, v in enumerate(variants)
            ]
            for i in range(count)
        ]

    def test_blocks_cap_at_limit(self):
        blocks = _group_supercells(self.cells(5), limit=2)
        assert [len(b) for b in blocks] == [2, 2, 1]

    def test_blocks_preserve_cell_order(self):
        blocks = _group_supercells(self.cells(3), limit=4)
        flat = [cell for block in blocks for cell in block]
        assert [c[0].seed for c in flat] == [0, 1, 2]

    def test_variant_sequence_change_splits_blocks(self):
        cells = self.cells(2) + [
            [spec(index=10, seed=9, variant="other")]
        ]
        blocks = _group_supercells(cells, limit=8)
        assert [len(b) for b in blocks] == [2, 1]

    def test_stride_change_splits_blocks(self):
        cells = self.cells(1) + self.cells(1, stride=0.1)
        blocks = _group_supercells(cells, limit=8)
        assert len(blocks) == 2


class TestWriterDurability:
    def campaign(self):
        return Campaign(scenarios=("cut_in",), seeds=(0,))

    def summary(self, index=0):
        return RunSummary(
            index=index,
            scenario="cut_in",
            seed=0,
            fpr=30.0,
            variant="default",
            collided=False,
            max_fpr=1.0,
            ticks=10,
            duration=5.0,
        )

    def test_finish_fsyncs_the_file(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))
        )
        with CampaignWriter.create(tmp_path / "c.jsonl", self.campaign()) as w:
            # Header publication fsyncs at create (atomic_create_stream);
            # per-line writes after that only flush.
            after_create = len(synced)
            w.write(self.summary())
            assert len(synced) == after_create
            w.finish(workers=1, elapsed=1.0)
        assert len(synced) > after_create

    def test_atomic_close_fsyncs_the_directory(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))
        )
        path = tmp_path / "c.jsonl"
        with CampaignWriter.create(path, self.campaign(), atomic=True) as w:
            w.write(self.summary())
            w.finish(workers=1, elapsed=1.0)
        assert path.exists()
        assert not path.with_name(path.name + ".tmp").exists()
        # One fsync for the file at finish, one for the directory entry
        # after the rename.
        assert len(synced) >= 2

    def test_unsyncable_directory_does_not_lose_the_commit(
        self, tmp_path, monkeypatch
    ):
        """Filesystems that cannot fsync a directory still commit."""
        real_fsync = os.fsync
        calls = []

        def picky_fsync(fd):
            calls.append(fd)
            if len(calls) > 1:  # the directory sync after finish's
                raise OSError("directory fsync unsupported")
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", picky_fsync)
        path = tmp_path / "c.jsonl"
        with CampaignWriter.create(path, self.campaign(), atomic=True) as w:
            w.write(self.summary())
            w.finish(workers=1, elapsed=1.0)
        assert path.exists()
        assert len(calls) >= 2


class TestAggregationSkipsErrorRows:
    """Failed runs contribute no FPR statistics and no collision evidence."""

    def campaign(self):
        return Campaign(scenarios=("cut_in",), seeds=(0, 1, 2), fprs=(30.0,))

    def summary(self, index, seed, *, error=None, collided=False, max_fpr=None):
        return RunSummary(
            index=index,
            scenario="cut_in",
            seed=seed,
            fpr=30.0,
            variant="default",
            collided=collided,
            collision_time=5.0 if collided else None,
            max_fpr=max_fpr,
            max_total_fpr=None if max_fpr is None else max_fpr + 1.0,
            ticks=None if max_fpr is None else 10,
            duration=0.0 if error else 5.0,
            error=error,
        )

    def test_error_rows_excluded_from_fpr_means(self):
        result = CampaignResult(
            self.campaign(),
            [
                self.summary(0, 0, max_fpr=2.0),
                self.summary(1, 1, error="RuntimeError: boom"),
                self.summary(2, 2, max_fpr=4.0),
            ],
        )
        (row,) = campaign_table1(result)
        # Mean over the two clean seeds only; the error row's absent
        # estimate neither zeroes nor voids the mean.
        assert row.mean_estimates[30.0] == pytest.approx(3.0)

    def test_error_rows_contribute_no_collision_evidence(self):
        # All three seeds failed: the rate has no outcome at all, so it
        # is neither colliding nor safe and cannot be the MRF.
        result = CampaignResult(
            self.campaign(),
            [
                self.summary(i, i, error="RuntimeError: boom")
                for i in range(3)
            ],
        )
        (row,) = campaign_table1(result)
        assert row.mean_estimates[30.0] is None
        assert row.mrf.mrf is None
        assert row.mrf.collision_fprs == ()
        assert row.mrf.safe_fprs == ()

    def test_error_row_does_not_mask_a_collision(self):
        # seed 1 errored, seed 2 collided: the collision must still
        # void the rate's mean per the paper's N/A convention.
        result = CampaignResult(
            self.campaign(),
            [
                self.summary(0, 0, max_fpr=2.0),
                self.summary(1, 1, error="RuntimeError: boom"),
                self.summary(2, 2, collided=True),
            ],
        )
        (row,) = campaign_table1(result)
        assert row.mean_estimates[30.0] is None
        assert row.mrf.collision_fprs == (30.0,)
