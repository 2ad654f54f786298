"""``repro replay``: re-estimate recorded traces, never re-simulate.

The fleet side of the simulate-once story. A :class:`TraceStore` (or a
recorded campaign's grid) names the traces; a :class:`ReplayPlan` says
which cells to visit and which estimation variants to run on each —
offline re-evaluations under alternative :class:`ZhuyiParams`, or
post-deployment :class:`~repro.core.online.OnlineEstimator` replays
under named predictor/aggregator combinations. :class:`ReplayService`
streams the resulting rows to a resumable, shardable JSONL file with a
per-shard heartbeat sidecar, using the same kill-safe write protocol as
campaign files.

Offline variants reproduce campaign estimation rows exactly: the plan's
cell-major x variant expansion order equals :meth:`Campaign.runs`, and
the evaluation math is the runner's (:func:`presample_trace` once per
cell, one :class:`OfflineEvaluator` per variant), so a replay of a
recorded campaign's grid over a warm store emits the same summary
values the campaign wrote — from the store alone, simulator untouched.
"""

# reprolint: disable-file=DET002 -- wall-clock here feeds only the
# heartbeat sidecar and the completed-footer elapsed metadata; no
# estimation value, run line or aggregate ever derives from it.

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence, TYPE_CHECKING

from repro import ioutil
from repro.batch.campaign import Campaign
from repro.batch.results import CampaignWriter, RunSummary
from repro.core.aggregation import (
    Aggregator,
    MaxAggregator,
    MeanAggregator,
    PercentileAggregator,
)
from repro.core.evaluator import OfflineEvaluator, presample_trace
from repro.core.online import OnlineEstimator
from repro.core.parameters import ZhuyiParams
from repro.errors import ConfigurationError, TraceError
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

#: Named predictors an online variant may request. ``maneuver`` takes
#: the cell's road so lane-change hypotheses bend with the geometry.
PREDICTORS = ("cv", "ca", "maneuver")


def _build_predictor(spec: str, road):
    from repro.prediction.constant_accel import ConstantAccelerationPredictor
    from repro.prediction.constant_velocity import ConstantVelocityPredictor
    from repro.prediction.maneuver import ManeuverPredictor

    if spec == "cv":
        return ConstantVelocityPredictor()
    if spec == "ca":
        return ConstantAccelerationPredictor()
    if spec == "maneuver":
        return ManeuverPredictor(road=road)
    raise ConfigurationError(
        f"unknown predictor {spec!r}; choose from {PREDICTORS}"
    )


def _build_aggregator(spec: str | None) -> Aggregator:
    """Aggregator from a spec string: ``max``, ``mean``,
    ``percentile`` or ``percentile:Q`` (default: the paper's 99th
    percentile)."""
    if spec is None or spec == "percentile":
        return PercentileAggregator()
    if spec == "max":
        return MaxAggregator()
    if spec == "mean":
        return MeanAggregator()
    if spec.startswith("percentile:"):
        try:
            return PercentileAggregator(n=float(spec.split(":", 1)[1]))
        except ValueError as exc:
            raise ConfigurationError(
                f"bad percentile in aggregator spec {spec!r}"
            ) from exc
    raise ConfigurationError(
        f"unknown aggregator {spec!r}; use max, mean, percentile "
        "or percentile:Q"
    )


@dataclass(frozen=True)
class ReplayVariant:
    """One estimation configuration a replay runs per stored trace.

    ``predictor=None`` is an *offline* variant: the campaign runner's
    exact math (:class:`OfflineEvaluator` under ``params``), which is
    what reproduces recorded campaign rows. A named ``predictor`` makes
    it an *online* variant: :meth:`OnlineEstimator.replay` with that
    predictor and the ``aggregator`` spec (Equation 4's reduction).
    """

    name: str
    params: ZhuyiParams | None = None
    predictor: str | None = None
    aggregator: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a replay variant needs a name")
        if self.predictor is not None and self.predictor not in PREDICTORS:
            raise ConfigurationError(
                f"unknown predictor {self.predictor!r}; "
                f"choose from {PREDICTORS}"
            )
        if self.aggregator is not None and self.predictor is None:
            raise ConfigurationError(
                "aggregator specs apply to online variants only "
                "(offline evaluation has no Equation 4 hypothesis set "
                "to reduce)"
            )
        _build_aggregator(self.aggregator)  # validate the spec eagerly

    def resolved_params(self) -> ZhuyiParams:
        return self.params if self.params is not None else ZhuyiParams()

    def to_dict(self) -> dict:
        from dataclasses import asdict

        return {
            "name": self.name,
            "params": None if self.params is None else asdict(self.params),
            "predictor": self.predictor,
            "aggregator": self.aggregator,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ReplayVariant":
        return cls(
            name=data["name"],
            params=(
                None
                if data.get("params") is None
                else ZhuyiParams(**data["params"])
            ),
            predictor=data.get("predictor"),
            aggregator=data.get("aggregator"),
        )


@dataclass(frozen=True)
class ReplayPlan:
    """Which stored cells to replay, under which estimation variants.

    Expansion (:meth:`jobs`) is cell-major then variant — the same
    (scenario, seed, fpr, variant) order :meth:`Campaign.runs` uses —
    and each job is stamped with its index, so replay files resume and
    shard exactly like campaign files (cell ``j`` of the plan goes to
    shard ``j % count``, a shard owns all of its cells' variants).
    """

    cells: tuple[Cell, ...]
    variants: tuple[ReplayVariant, ...]
    stride: float = 0.05
    provisioned_fpr: float = 30.0
    cameras: tuple[str, ...] = ANALYZED_CAMERAS
    backend: str = "batched"
    noise: PerceptionNoise | None = None

    def __post_init__(self) -> None:
        if not self.cells:
            raise ConfigurationError("a replay plan needs at least one cell")
        if not self.variants:
            raise ConfigurationError(
                "a replay plan needs at least one variant"
            )
        names = [variant.name for variant in self.variants]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"duplicate replay variant names: {names}"
            )
        if len(set(self.cells)) != len(self.cells):
            raise ConfigurationError("duplicate cells in replay plan")
        if self.stride <= 0.0:
            raise ConfigurationError(
                f"stride must be positive, got {self.stride}"
            )

    @property
    def size(self) -> int:
        return len(self.cells) * len(self.variants)

    def jobs(self) -> list[tuple[int, Cell, ReplayVariant]]:
        """``(index, cell, variant)`` in deterministic expansion order."""
        out = []
        for cell in self.cells:
            for variant in self.variants:
                out.append((len(out), cell, variant))
        return out

    def shard(self, index: int, count: int) -> list[tuple[int, Cell, ReplayVariant]]:
        """Jobs of shard ``index`` of ``count`` (cell-striped)."""
        if count < 1:
            raise ConfigurationError(
                f"shard count must be at least 1, got {count}"
            )
        if count > len(self.cells):
            raise ConfigurationError(
                f"cannot split {len(self.cells)} cells into {count} shards"
            )
        if not 0 <= index < count:
            raise ConfigurationError(
                f"shard index must be in [0, {count}), got {index}"
            )
        variants = len(self.variants)
        return [
            job
            for job in self.jobs()
            if (job[0] // variants) % count == index
        ]

    def to_dict(self) -> dict:
        return {
            "cells": [
                {"scenario": s, "seed": seed, "fpr": fpr}
                for s, seed, fpr in self.cells
            ],
            "variants": [variant.to_dict() for variant in self.variants],
            "stride": self.stride,
            "provisioned_fpr": self.provisioned_fpr,
            "cameras": list(self.cameras),
            "backend": self.backend,
            "noise": None if self.noise is None else self.noise.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ReplayPlan":
        return cls(
            cells=tuple(
                (raw["scenario"], int(raw["seed"]), float(raw["fpr"]))
                for raw in data["cells"]
            ),
            variants=tuple(
                ReplayVariant.from_dict(raw) for raw in data["variants"]
            ),
            stride=float(data["stride"]),
            provisioned_fpr=float(data["provisioned_fpr"]),
            cameras=tuple(data["cameras"]),
            backend=data.get("backend", "batched"),
            noise=(
                None
                if data.get("noise") is None
                else PerceptionNoise.from_dict(data["noise"])
            ),
        )

    @classmethod
    def from_store(
        cls,
        store: "TraceStore",
        variants: Sequence[ReplayVariant],
        **settings,
    ) -> "ReplayPlan":
        """A plan over every cell the store currently holds.

        Cells come from the store index (validated against the bundle
        directories), sorted by (scenario, seed, fpr) so two processes
        reading the same store agree on every job's index.
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
        variants: Sequence[ReplayVariant] | None = None,
    ) -> "ReplayPlan":
        """Adopt a campaign's grid, expansion order and settings.

        With ``variants=None`` the campaign's own parameter variants
        become offline replay variants, making job ``i`` of the plan
        the same (scenario, seed, fpr, variant) as run ``i`` of the
        campaign — the configuration that reproduces its estimation
        rows from the store alone.
        """
        if variants is None:
            variants = tuple(
                ReplayVariant(name=v.name, params=v.params)
                for v in campaign.variants
            )
        cells = tuple(
            (scenario, int(seed), float(fpr))
            for scenario in campaign.scenarios
            for seed in campaign.seeds
            for fpr in campaign.fprs
        )
        return cls(
            cells=cells,
            variants=tuple(variants),
            stride=campaign.stride,
            provisioned_fpr=campaign.provisioned_fpr,
            cameras=tuple(campaign.cameras),
            backend=campaign.backend,
            noise=campaign.noise,
        )


def _row_dict(summary: RunSummary, variant: ReplayVariant) -> dict:
    """A replay line: the campaign run fields + estimator identity."""
    return {
        "kind": "run",
        **summary.to_dict(),
        "predictor": variant.predictor,
        "aggregator": variant.aggregator,
    }


def execute_replay_cell(
    cell: Cell,
    jobs: Sequence[tuple[int, ReplayVariant]],
    plan: ReplayPlan,
    store: "TraceStore",
) -> list[dict]:
    """Replay one stored cell under each of its ``(index, variant)`` jobs.

    Pure re-estimation: a store miss is a failure row (``TraceError``),
    never a simulation — the service's contract is that it can run on a
    machine with the store and the code, nothing else. Never raises;
    failures fold into rows exactly like campaign cells. The loaded
    trace's memmap handles are released before returning.
    """
    from repro.batch.runner import _close_trace
    from repro.scenarios.catalog import build_scenario

    cell_noise = (
        None
        if plan.noise is None
        else plan.noise.for_cell(cell[0], int(cell[1]), float(cell[2]))
    )

    def failure(index: int, variant: ReplayVariant, error: str) -> dict:
        return _row_dict(
            RunSummary(
                index=index,
                scenario=cell[0],
                seed=cell[1],
                fpr=cell[2],
                variant=variant.name,
                collided=False,
                error=error,
            ),
            variant,
        )

    try:
        built = build_scenario(cell[0], seed=cell[1])
        trace = store.get(store.key(*cell))
    except Exception as exc:  # noqa: BLE001 - service-level failure capture
        error = f"{type(exc).__name__}: {exc}"
        return [failure(index, variant, error) for index, variant in jobs]
    if trace is None:
        error = (
            f"TraceError: cell ({cell[0]!r}, seed={cell[1]}, "
            f"fpr={cell[2]:g}) is not in the trace store (replay never "
            "simulates; record it with a campaign --store run)"
        )
        return [failure(index, variant, error) for index, variant in jobs]

    try:
        if trace.has_collision:
            return [
                _row_dict(
                    RunSummary(
                        index=index,
                        scenario=cell[0],
                        seed=cell[1],
                        fpr=cell[2],
                        variant=variant.name,
                        collided=True,
                        collision_time=trace.first_collision_time,
                        duration=trace.duration,
                    ),
                    variant,
                )
                for index, variant in jobs
            ]
        rows = []
        samples = None  # one presampling serves every offline variant
        for index, variant in jobs:
            try:
                if variant.predictor is None:
                    if samples is None:
                        samples = presample_trace(
                            trace, plan.stride, noise=cell_noise
                        )
                    evaluator = OfflineEvaluator(
                        params=variant.resolved_params(),
                        road=built.road,
                        stride=plan.stride,
                        backend=plan.backend,
                        noise=cell_noise,
                    )
                    series = evaluator.evaluate(trace, samples=samples)
                else:
                    estimator = OnlineEstimator(
                        params=variant.resolved_params(),
                        predictor=_build_predictor(
                            variant.predictor, built.road
                        ),
                        aggregator=_build_aggregator(variant.aggregator),
                        road=built.road,
                        backend=plan.backend,
                        noise=cell_noise,
                    )
                    series = estimator.replay(trace, period=plan.stride)
                rows.append(
                    _row_dict(
                        RunSummary(
                            index=index,
                            scenario=cell[0],
                            seed=cell[1],
                            fpr=cell[2],
                            variant=variant.name,
                            collided=False,
                            max_fpr=series.max_fpr(),
                            max_total_fpr=series.max_total_fpr(
                                plan.cameras
                            ),
                            fraction_of_provision=(
                                series.fraction_of_provision(
                                    plan.provisioned_fpr, plan.cameras
                                )
                            ),
                            camera_max_fpr={
                                camera: series.max_fpr(camera)
                                for camera in plan.cameras
                            },
                            ticks=len(series.ticks),
                            duration=trace.duration,
                        ),
                        variant,
                    )
                )
            except Exception as exc:  # noqa: BLE001 - per-variant capture
                rows.append(
                    failure(index, variant, f"{type(exc).__name__}: {exc}")
                )
        return rows
    finally:
        _close_trace(trace)


def _write_heartbeat(
    path: Path,
    done: int,
    total: int,
    last_index: int | None,
    started: float,
    shard: tuple[int, int] | None,
) -> None:
    """Atomically refresh the shard's heartbeat sidecar.

    A monitoring process (or a human with ``cat``) reads progress
    without touching — or racing — the JSONL stream itself. Atomic
    replace means the sidecar is always one complete JSON object.
    """
    # One instant for both fields: computing them from separate
    # time.time() calls let `updated - elapsed` drift from the true
    # start, confusing staleness monitors that subtract them.
    now = time.time()
    payload = {
        "kind": "heartbeat",
        "rows_done": done,
        "rows_total": total,
        "last_index": last_index,
        "elapsed": now - started,
        "updated": now,
        "shard": (
            None if shard is None else {"index": shard[0], "count": shard[1]}
        ),
    }
    ioutil.atomic_write_text(path, json.dumps(payload) + "\n")


def load_replay_rows(path: str | Path) -> tuple[ReplayPlan, list[dict], bool]:
    """Reload a replay JSONL file.

    Returns ``(plan, rows, completed)``; a torn final line (kill
    mid-write) is dropped, mirroring campaign loading.
    """
    text = Path(path).read_text()
    torn = bool(text) and not text.endswith("\n")
    raw_lines = [line for line in text.splitlines() if line.strip()]
    if not raw_lines:
        raise TraceError(f"empty replay file: {path}")
    records = []
    for number, line in enumerate(raw_lines):
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            if torn and number == len(raw_lines) - 1 and number > 0:
                break
            raise TraceError(f"invalid replay JSONL in {path}: {exc}") from exc
    header = records[0]
    if header.get("kind") != "replay":
        raise TraceError(
            f"replay file {path} does not start with a replay header"
        )
    if header.get("schema") != REPLAY_SCHEMA:
        raise TraceError(
            f"replay schema {header.get('schema')!r} unsupported "
            f"(expected {REPLAY_SCHEMA})"
        )
    plan = ReplayPlan.from_dict(header["plan"])
    rows = [r for r in records[1:] if r.get("kind") == "run"]
    completed = any(r.get("kind") == "completed" for r in records[1:])
    return plan, rows, completed


@dataclass
class ReplayService:
    """Streams a replay plan's rows to a resumable, shardable JSONL file.

    The write protocol is the campaign writer's: header before the
    first row, each row flushed as it lands, an fsynced ``completed``
    footer only when the (shard's) whole plan ran — so a killed replay
    keeps its finished rows and :meth:`run` with ``resume=True``
    executes exactly the remainder. Alongside the stream lives a
    ``<out>.heartbeat`` sidecar, atomically refreshed every
    :attr:`heartbeat_every` rows, which is what a fleet scheduler polls
    to tell a slow shard from a dead one.

    Attributes:
        store: the trace store rows are re-estimated from.
        heartbeat_every: rows between heartbeat refreshes.
    """

    store: "TraceStore"
    heartbeat_every: int = 8

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
            resume: reuse the rows already present in ``out`` (which
                must have been written for the same plan and shard)
                and execute only the missing indices. A clean-prefix
                partial is appended to; anything else is rewritten
                canonically via an atomic temp-and-rename.

        Returns:
            Every row of the (shard's) plan, ascending by index.
        """
        jobs = plan.jobs() if shard is None else plan.shard(*shard)
        kept: dict[int, dict] = {}
        writer = None
        appending = False
        started = time.time()
        heartbeat = None if out is None else Path(str(out) + ".heartbeat")

        if out is not None and resume:
            existing_plan, rows, completed = load_replay_rows(out)
            if existing_plan.to_dict() != plan.to_dict():
                raise ConfigurationError(
                    f"replay file {out} was written for a different plan; "
                    "resume needs the same store/variants/settings"
                )
            kept = {int(row["index"]): row for row in rows}
            if completed and all(index in kept for index, _, _ in jobs):
                return [kept[index] for index, _, _ in jobs]

        if out is not None:
            header = {
                "kind": "replay",
                "schema": REPLAY_SCHEMA,
                "plan": plan.to_dict(),
                "store": str(self.store.root),
            }
            if shard is not None:
                header["shard"] = {"index": shard[0], "count": shard[1]}
            expected = [index for index, _, _ in jobs]
            prefix = expected[: len(kept)]
            if resume and kept and sorted(kept) == prefix:
                # The normal kill case: a clean prefix, append in place
                # (kept rows are already on disk — only fresh rows are
                # emitted below).
                writer = CampaignWriter.append_to(out)
                appending = True
            else:
                # Fresh file, or an out-of-order/torn partial: write
                # canonically. Atomic staging protects an existing
                # partial from a crash mid-rewrite.
                writer = CampaignWriter.create_raw(
                    out, header, atomic=resume and bool(kept)
                )

        by_cell: dict[Cell, list[tuple[int, ReplayVariant]]] = {}
        for index, cell, variant in jobs:
            by_cell.setdefault(cell, []).append((index, variant))

        results: dict[int, dict] = {}
        done = 0
        try:
            for cell, cell_jobs in by_cell.items():
                fresh = [
                    (index, variant)
                    for index, variant in cell_jobs
                    if index not in kept
                ]
                rows = (
                    execute_replay_cell(cell, fresh, plan, self.store)
                    if fresh
                    else []
                )
                produced = {int(row["index"]): row for row in rows}
                for index, _ in cell_jobs:
                    was_kept = index in kept
                    row = kept.get(index, produced.get(index))
                    results[index] = row
                    if writer is not None and not (appending and was_kept):
                        writer.write_row(row)
                    done += 1
                    if progress is not None:
                        progress(done, len(jobs), row)
                    if heartbeat is not None and (
                        done % self.heartbeat_every == 0
                    ):
                        _write_heartbeat(
                            heartbeat, done, len(jobs), index,
                            started, shard,
                        )
            if writer is not None:
                writer.finish(
                    workers=1, elapsed=time.time() - started
                )
            if heartbeat is not None:
                last = jobs[-1][0] if jobs else None
                _write_heartbeat(
                    heartbeat, done, len(jobs), last, started, shard
                )
        finally:
            if writer is not None:
                writer.close()
        return [results[index] for index, _, _ in jobs]
