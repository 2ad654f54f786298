"""The benchmark's workloads: inputs from a seed, timed passes, output checks.

Every workload runs a fixed grid over the four catalog families and
their ``_dense8`` variants, through the public API, in one process
(``workers=1``):

* ``table1_cold`` — a campaign over FPR {30, 5} into a fresh, empty
  :class:`~repro.store.TraceStore`, so every cell simulates and records.
* ``variants_warm`` — four ``ZhuyiParams`` variants at FPR 30 on the
  ``crosstrace`` backend with evaluation-time perception noise, reading
  a store filled during set-up.
* ``replay_online`` — :class:`~repro.store.replay.ReplayService` rows for
  the offline, ``cv`` and ``maneuver`` estimators over a store filled
  during set-up.

The seed is the scenarios' jitter seed (and the noise seed), so each
seed gives other traces. A pass is one sweep of the grid; its run lines
are digested to check the outputs.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from repro.batch import Campaign, CampaignRunner
from repro.batch.campaign import ParamVariant
from repro.core.parameters import ZhuyiParams
from repro.perception.noise import PerceptionNoise
from repro.scenarios.catalog import build_scenario, ensure_scenario
from repro.store import TraceStore
from repro.store.fingerprint import code_fingerprint
from repro.store.replay import ReplayPlan, ReplayService, ReplayVariant

FAMILIES = ("cut_in", "cut_out", "vehicle_following", "challenging_cut_in_curved")
SCENARIOS = tuple(name for family in FAMILIES for name in (family, f"{family}_dense8"))

WORKLOADS = ("table1_cold", "variants_warm", "replay_online")

#: FPR of the warm workloads' cells.
WARM_FPR = 30.0

#: Cells per ``crosstrace`` block (the runner's default).
SUPERCELL = 4

PARAM_VARIANTS = (
    ParamVariant("paper"),
    ParamVariant("c1_0.85", ZhuyiParams(c1=0.85)),
    ParamVariant("c2_0.85", ZhuyiParams(c2=0.85)),
    ParamVariant("c1_0.95", ZhuyiParams(c1=0.95)),
)

REPLAY_VARIANTS = (
    ReplayVariant("offline"),
    ReplayVariant("cv", predictor="cv", aggregator="percentile"),
    ReplayVariant("maneuver", predictor="maneuver", aggregator="percentile"),
)


@dataclass(frozen=True)
class Grid:
    """Sizes of the workloads' grids (tests shrink them)."""

    scenarios: tuple[str, ...] = SCENARIOS
    cold_fprs: tuple[float, ...] = (30.0, 5.0)
    stride: float = 0.05
    #: Estimation period of the replayed online checks (5 Hz).
    replay_period: float = 0.2


FULL = Grid()


@dataclass
class PassResult:
    """One timed sweep of a workload's grid."""

    wall_s: float
    #: The pass in reference seconds (see ``speed.py``).
    ref_s: float
    rows: list[dict]
    digest: str
    #: Reference seconds per cell.
    cell_s: list[float]
    store_bytes: int
    #: What is wrong with the outputs, beyond the digest.
    problems: list[str]

    @property
    def failed_rows(self) -> int:
        return sum(1 for row in self.rows if row.get("error"))


def tree_bytes(root: Path) -> int:
    """Bytes of all regular files under ``root``."""
    return sum(path.stat().st_size for path in root.rglob("*") if path.is_file())


def run_lines(path: Path) -> tuple[list[dict], str]:
    """The ``run`` lines of a campaign or replay JSONL file and their sha256.

    Header, footer and the heartbeat sidecar carry wall-clock and path
    metadata, so only run lines enter the digest.
    """
    digest = hashlib.sha256()
    rows = []
    with path.open("rb") as handle:
        for raw in handle:
            record = json.loads(raw)
            if record.get("kind") == "run":
                digest.update(raw)
                rows.append(record)
    return rows, digest.hexdigest()


def wall_seconds(start: float, end: float) -> float:
    return end - start


def cell_seconds(
    start: float,
    finished: dict[tuple, float],
    order: list[tuple],
    unit: int,
    measure: Callable[[float, float], float] = wall_seconds,
) -> list[float]:
    """Per-cell seconds from completion timestamps.

    ``finished`` maps each cell to the time its last row arrived through
    the progress hook. Cells run in ``order`` in units of ``unit`` cells
    (a ``crosstrace`` block finishes all its cells at once), so each
    unit's interval since the previous unit ended, as ``measure`` counts
    it, is shared equally by its cells.
    """
    seconds = []
    previous = start
    for first in range(0, len(order), unit):
        cells = order[first:first + unit]
        end = max(finished[cell] for cell in cells)
        seconds.extend([measure(previous, end) / len(cells)] * len(cells))
        previous = end
    return seconds


class Workload:
    """One workload's inputs, store and passes, inside ``workdir``.

    ``measure(start, end)`` converts a wall-clock interval into the
    seconds the workload reports (default: wall seconds).
    """

    def __init__(
        self,
        name: str,
        seed: int,
        workdir: Path,
        grid: Grid = FULL,
        measure: Callable[[float, float], float] = wall_seconds,
    ):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.grid = grid
        self.measure = measure
        self.fingerprint = code_fingerprint()
        self.store: TraceStore | None = None
        self._index_bytes = 0
        for scenario in grid.scenarios:
            if not ensure_scenario(scenario):
                raise ValueError(f"unknown scenario {scenario!r}")

    def _fprs(self, grid: Grid) -> tuple[float, ...]:
        if self.name == "table1_cold":
            return grid.cold_fprs
        return (WARM_FPR,)

    def _cells(self, grid: Grid) -> list[tuple[str, int, float]]:
        """Grid cells in run order (scenario-major, then FPR)."""
        return [
            (scenario, self.seed, fpr)
            for scenario in grid.scenarios
            for fpr in self._fprs(grid)
        ]

    @property
    def cells(self) -> list[tuple[str, int, float]]:
        return self._cells(self.grid)

    @property
    def variants_per_cell(self) -> int:
        return {
            "table1_cold": 1,
            "variants_warm": len(PARAM_VARIANTS),
            "replay_online": len(REPLAY_VARIANTS),
        }[self.name]

    @property
    def rows_per_pass(self) -> int:
        return len(self.cells) * self.variants_per_cell

    # ------------------------------------------------------------------
    # set-up
    # ------------------------------------------------------------------

    def setup(self, repeats: int) -> float:
        """Build the grid's scenarios ``repeats`` times; fill the warm store.

        Returns the median build round plus, for the warm workloads, the
        time to simulate every cell and record it in the store, plus one
        warm-up pass over the grid's cheapest corner (first scenario,
        last FPR), so that lazy imports and first-call costs stay out of
        the timed passes.
        """
        rounds = []
        for _ in range(repeats):
            started = time.perf_counter()
            for scenario in self.grid.scenarios:
                build_scenario(scenario, seed=self.seed)
            rounds.append(self.measure(started, time.perf_counter()))
        seconds = statistics.median(rounds)
        if self.name != "table1_cold":
            started = time.perf_counter()
            self.store = self._new_store("warm")
            for scenario, seed, fpr in self.cells:
                trace = build_scenario(scenario, seed=seed).run(fpr=fpr)
                self.store.put(self.store.key(scenario, seed, fpr), trace)
            seconds += self.measure(started, time.perf_counter())
            self._index_bytes = self.store.index_path.stat().st_size
        corner = replace(
            self.grid,
            scenarios=self.grid.scenarios[:1],
            cold_fprs=self.grid.cold_fprs[-1:],
        )
        seconds += self.run_pass("warmup", corner).ref_s
        return seconds

    def _new_store(self, tag: str) -> TraceStore:
        return TraceStore(self.workdir / f"store-{tag}", fingerprint=self.fingerprint)

    # ------------------------------------------------------------------
    # timed pass
    # ------------------------------------------------------------------

    def run_pass(self, tag: str, grid: Grid | None = None) -> PassResult:
        """Sweep the grid (default: the workload's) once, timing only the sweep."""
        grid = grid or self.grid
        cells = self._cells(grid)
        out = self.workdir / f"{tag}.jsonl"
        finished: dict[tuple, float] = {}

        def progress(done, total, record) -> None:
            if isinstance(record, dict):  # a replay row
                cell = (record["scenario"], record["seed"], record["fpr"])
            else:
                cell = (record.scenario, record.seed, record.fpr)
            finished[cell] = time.perf_counter()

        unit = 1
        if self.name == "replay_online":
            store = self.store
            plan = ReplayPlan(
                cells=tuple(cells),
                variants=REPLAY_VARIANTS,
                stride=grid.replay_period,
                backend="batched",
            )
            service = ReplayService(store)

            def execute():
                service.run(plan, out=out, progress=progress)
        else:
            if self.name == "table1_cold":
                store = self._new_store(tag)
                campaign = Campaign(
                    scenarios=grid.scenarios,
                    seeds=(self.seed,),
                    fprs=self._fprs(grid),
                    stride=grid.stride,
                    backend="batched",
                )
            else:
                store = self.store
                unit = SUPERCELL
                campaign = Campaign(
                    scenarios=grid.scenarios,
                    seeds=(self.seed,),
                    fprs=self._fprs(grid),
                    variants=PARAM_VARIANTS,
                    stride=grid.stride,
                    backend="crosstrace",
                    noise=PerceptionNoise(
                        miss_rate=0.05, position_noise=0.2, seed=self.seed
                    ),
                )
            runner = CampaignRunner(workers=1, supercell=SUPERCELL, store=store)

            def execute():
                runner.run(campaign, progress=progress, out=out)

        started = time.perf_counter()
        execute()
        ended = time.perf_counter()

        rows, digest = run_lines(out)
        result = PassResult(
            wall_s=ended - started,
            ref_s=self.measure(started, ended),
            rows=rows,
            digest=digest,
            cell_s=cell_seconds(started, finished, cells, unit, self.measure),
            store_bytes=tree_bytes(store.root),
            problems=self._store_problems(store, cells) + self._row_problems(rows, cells),
        )
        out.unlink()
        Path(str(out) + ".heartbeat").unlink(missing_ok=True)
        if self.name == "table1_cold":
            shutil.rmtree(store.root)
        return result

    # ------------------------------------------------------------------
    # output checks
    # ------------------------------------------------------------------

    def _store_problems(self, store: TraceStore, cells: list[tuple]) -> list[str]:
        if self.name == "table1_cold":
            recorded = {key.cell for key in store.keys()}
            if recorded != set(cells):
                return [f"cold store recorded {len(recorded)} of {len(cells)} cells"]
        elif store.index_path.stat().st_size != self._index_bytes:
            return ["warm pass wrote to the trace store (a miss)"]
        return []

    def _row_problems(self, rows: list[dict], cells: list[tuple]) -> list[str]:
        found = []
        expected = len(cells) * self.variants_per_cell
        if len(rows) != expected:
            found.append(f"{len(rows)} run lines, expected {expected}")
        if [row["index"] for row in rows] != list(range(len(rows))):
            found.append("run lines out of index order")
        collided: dict[tuple, set] = {}
        for row in rows:
            cell = (row["scenario"], row["seed"], row["fpr"])
            collided.setdefault(cell, set()).add(row["collided"])
            if not row["collided"] and not row.get("error") and row.get("max_fpr") is None:
                found.append(f"clean row {row['index']} has no estimate")
        if any(len(flags) > 1 for flags in collided.values()):
            found.append("variants of one cell disagree on collision")
        return found
