"""``repro replay``: re-estimate recorded traces, never re-simulate.

The fleet side of the simulate-once story. A :class:`TraceStore` (or a
recorded campaign's grid) names the traces; a :class:`ReplayPlan` says
which cells to visit and which estimation variants to run on each —
offline re-evaluations under alternative :class:`ZhuyiParams`, or
post-deployment :class:`~repro.core.online.OnlineEstimator` replays
under named predictor/aggregator combinations.

A plan is the second kind of :class:`~repro.batch.campaign.Grid`:
explicit store cells instead of a scenario x seed x FPR product. The
:class:`~repro.batch.runner.CampaignRunner` executes it like a
campaign — workers, shards, kill/resume, the ``<out>.heartbeat``
sidecar, ``campaign-merge`` — except that each task is
:func:`execute_replay_cell`, which reads the store and never simulates.

Offline variants reproduce campaign estimation rows exactly: the plan's
cell-major x variant expansion order equals :meth:`Campaign.runs`, and
the cell evaluation is the runner's own, so a replay of a recorded
campaign's grid over a warm store emits the same summary values the
campaign wrote — from the store alone, simulator untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence, TYPE_CHECKING

from repro.batch.campaign import Campaign, Grid, ParamVariant, RunSpec
from repro.batch.results import CampaignResult, RunSummary
from repro.batch.runner import CampaignRunner, _execute_cells
from repro.errors import ConfigurationError
from repro.perception.noise import PerceptionNoise
from repro.perception.sensor import ANALYZED_CAMERAS

if TYPE_CHECKING:  # runtime receives the object, never the class
    from repro.store.store import TraceStore

#: Bumped when a replay line's field set changes incompatibly.
REPLAY_SCHEMA = 1

#: A (scenario, seed, fpr) coordinate — the store's cell identity.
Cell = tuple[str, int, float]

#: Called after each completed row with (done, total, row_dict).
ReplayProgress = Callable[[int, int, dict], None]

#: The replay name of a grid variant (offline, or online with a
#: predictor and aggregator).
ReplayVariant = ParamVariant


@dataclass(frozen=True)
class ReplayPlan(Grid):
    """Which stored cells to replay, under which estimation variants.

    Expansion (:meth:`runs`) is cell-major then variant — the same
    (scenario, seed, fpr, variant) order :meth:`Campaign.runs` uses —
    and sharding is the campaign's cell stripe (cell ``j`` of the plan
    goes to shard ``j % count``, a shard owns all of its cells'
    variants). Its files carry a ``replay`` schema-1 header and run
    lines that add each variant's ``predictor`` and ``aggregator``.
    :attr:`scenarios` and :attr:`fprs` let the Table 1 aggregation
    (``campaign-merge``) read a replay result like a campaign's.
    """

    KIND = "replay"
    SCHEMA = REPLAY_SCHEMA
    PAYLOAD = "plan"

    cells: tuple[Cell, ...]
    variants: tuple[ParamVariant, ...]
    stride: float = 0.05
    provisioned_fpr: float = 30.0
    cameras: tuple[str, ...] = ANALYZED_CAMERAS
    backend: str = "batched"
    noise: PerceptionNoise | None = None

    def __post_init__(self) -> None:
        self._check_settings()

    @property
    def scenarios(self) -> tuple[str, ...]:
        """The plan's scenarios in first-appearance order."""
        return tuple(dict.fromkeys(cell[0] for cell in self.cells))

    @property
    def fprs(self) -> tuple[float, ...]:
        """The plan's FPR settings in first-appearance order."""
        return tuple(dict.fromkeys(float(cell[2]) for cell in self.cells))

    def header(self, store_root: str | None = None) -> dict:
        return {**super().header(), "store": store_root}

    def row(self, summary: RunSummary) -> dict:
        """A replay line: the campaign run fields + estimator identity."""
        variant = next(v for v in self.variants if v.name == summary.variant)
        return {
            **super().row(summary),
            "predictor": variant.predictor,
            "aggregator": variant.aggregator,
        }

    def to_dict(self) -> dict:
        return {
            "cells": [
                {"scenario": s, "seed": seed, "fpr": fpr}
                for s, seed, fpr in self.cells
            ],
            **self._settings_dict(
                [
                    {
                        **variant.to_dict(),
                        "predictor": variant.predictor,
                        "aggregator": variant.aggregator,
                    }
                    for variant in self.variants
                ]
            ),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ReplayPlan":
        return cls(
            cells=tuple(
                (raw["scenario"], int(raw["seed"]), float(raw["fpr"]))
                for raw in data["cells"]
            ),
            **cls._settings_from_dict(data),
        )

    @classmethod
    def from_store(
        cls,
        store: "TraceStore",
        variants: Sequence[ParamVariant],
        **settings,
    ) -> "ReplayPlan":
        """A plan over every cell the store currently holds.

        Cells come from the store index (validated against the bundle
        directories), sorted by (scenario, seed, fpr) so two processes
        reading the same store agree on every run's index.
        """
        cells = tuple(key.cell for key in store.keys())
        if not cells:
            raise ConfigurationError(
                f"trace store {store.root} holds no replayable bundles "
                "(run a campaign with --store first, or rebuild-index)"
            )
        return cls(cells=cells, variants=tuple(variants), **settings)

    @classmethod
    def from_campaign(
        cls,
        campaign: Campaign,
        variants: Sequence[ParamVariant] | None = None,
    ) -> "ReplayPlan":
        """Adopt a campaign's grid, expansion order and settings.

        With ``variants=None`` the campaign's own variants are replayed,
        making run ``i`` of the plan the same (scenario, seed, fpr,
        variant) as run ``i`` of the campaign — the configuration that
        reproduces its estimation rows from the store alone.
        """
        return cls(
            cells=campaign.cells,
            variants=tuple(
                campaign.variants if variants is None else variants
            ),
            stride=campaign.stride,
            provisioned_fpr=campaign.provisioned_fpr,
            cameras=tuple(campaign.cameras),
            backend=campaign.backend,
            noise=campaign.noise,
        )


def execute_replay_cell(
    cells: Sequence[Sequence[RunSpec]],
    store: "TraceStore",
) -> list[RunSummary]:
    """Replay a block of stored cells: the runner's task for a plan.

    Pure re-estimation through the campaign cells' own evaluation: a
    store miss is a failure row (``TraceError``), never a simulation —
    the service's contract is that it can run on a machine with the
    store and the code, nothing else. Never raises; failures fold into
    rows exactly like campaign cells.
    """
    return _execute_cells(cells, store, simulate=False)


@dataclass
class ReplayService:
    """Runs replay plans on the campaign runner, rows as dicts.

    A thin adapter over :class:`~repro.batch.runner.CampaignRunner`:
    the file protocol, resume, sharding and the ``<out>.heartbeat``
    sidecar are the runner's, and rows come back as the JSON objects
    the plan's run lines hold.

    Attributes:
        store: the trace store rows are re-estimated from.
        workers: the runner's worker processes (1 runs in-process).
    """

    store: "TraceStore"
    workers: int = 1

    def run(
        self,
        plan: ReplayPlan,
        out: str | Path | None = None,
        shard: tuple[int, int] | None = None,
        progress: ReplayProgress | None = None,
        resume: bool = False,
    ) -> list[dict]:
        """Execute the plan (or one shard of it), streaming to ``out``.

        Args:
            plan: cells x variants to replay.
            out: JSONL path (``None`` collects rows in memory only —
                no heartbeat either).
            shard: ``(index, count)`` to run only that cell-stripe.
            progress: called per finished row with
                ``(done, total, row)``.
            resume: reuse the rows already present in ``out`` and
                execute only the missing indices. The file must have
                been written for the same plan; its header names the
                shard, and a different ``shard`` is refused.

        Returns:
            Every row of the (shard's) plan, ascending by index.

        Raises:
            ConfigurationError: a worker count below 1, or on resume, a
                file written for another plan or another shard.
        """
        runner = CampaignRunner(workers=self.workers, store=self.store)
        hook = None
        if progress is not None:
            def hook(done: int, total: int, summary: RunSummary) -> None:
                progress(done, total, plan.row(summary))

        if out is not None and resume:
            partial = CampaignResult.load_jsonl(out)
            if partial.campaign.to_dict() != plan.to_dict():
                raise ConfigurationError(
                    f"replay file {out} was written for a different plan; "
                    "resume needs the same store/variants/settings"
                )
            if shard is not None and shard != partial.shard:
                raise ConfigurationError(
                    f"replay file {out} holds shard {partial.shard}, not "
                    f"{shard}; resume takes the shard from the file"
                )
            result = runner.resume(out, hook, partial=partial)
        else:
            result = runner.run(plan, hook, out=out, shard=shard)
        return [plan.row(summary) for summary in result.summaries]
