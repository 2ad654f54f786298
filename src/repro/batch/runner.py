"""Grid execution: sequential or fanned out across processes.

Each run is a pure function of its :class:`RunSpec` — the scenario
choreography is seeded by the spec's seed, the perception noise by a
fixed offset of it — so execution order and worker count cannot change
any summary. The runner executes both grid kinds: a :class:`Campaign`'s
cells simulate (or load from a trace store), a replay plan's cells
(:func:`repro.store.replay.execute_replay_cell`) only load. It exploits
purity three ways:

* ``workers=1`` is a plain loop; ``workers>1`` submits work to a
  ``ProcessPoolExecutor`` and reassembles summaries in run-index order.
* Runs sharing a (scenario, seed, fpr) **cell** differ only in their
  variant, which the closed-loop simulation never reads; the cell's
  trace is simulated once and every variant is evaluated against it
  (:func:`execute_cell`), turning an N-variant campaign into ~1
  simulation + one offline evaluation block (online variants replay
  the same trace through :meth:`OnlineEstimator.replay`).
* With ``out=`` the runner streams each summary to JSONL the moment it
  completes (via :class:`repro.batch.results.CampaignWriter`), so a
  killed campaign keeps its finished runs and :meth:`CampaignRunner.resume`
  executes only the remainder — producing a file identical to an
  uninterrupted run's, footer wall-clock aside. Beside the file, a
  ``<out>.heartbeat`` sidecar reports live progress
  (:mod:`repro.batch.reporting`).

A run that raises is captured as a failed :class:`RunSummary`
(``error`` set) instead of aborting the campaign; a worker crash
surfaces the same way.
"""

from __future__ import annotations

import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from repro.batch.campaign import (
    Campaign,
    Grid,
    RunSpec,
    build_aggregator,
    build_predictor,
)

if TYPE_CHECKING:  # runtime never needs the class, only the object
    from repro.store import TraceStore
from repro.batch.reporting import RunClock
from repro.batch.results import CampaignResult, CampaignWriter, RunSummary
from repro.core.evaluator import (
    OfflineEvaluator,
    TraceJob,
    TraceSamples,
    evaluate_trace_block,
    presample_trace,
)
from repro.core.online import OnlineEstimator
from repro.errors import ConfigurationError
from repro.sim.trace import ScenarioTrace

#: Called after each completed run with (done, total, summary).
ProgressHook = Callable[[int, int, RunSummary], None]

#: A clean cell awaiting evaluation: (position in the block, its specs,
#: the built scenario, its trace, the trace's one presampling).
_Survivor = tuple[int, Sequence[RunSpec], object, ScenarioTrace, TraceSamples]

#: Cap on simultaneously submitted tasks of a parallel run (bounds the
#: executor's memory, and the ordered sink's buffer, on large grids).
_MAX_PENDING = 256


def _failure_summary(
    spec: RunSpec, error: str, duration: float = 0.0
) -> RunSummary:
    return RunSummary(
        index=spec.index,
        scenario=spec.scenario,
        seed=spec.seed,
        fpr=spec.fpr,
        variant=spec.variant,
        collided=False,
        duration=duration,
        error=error,
    )


def _cell_contract_error(specs: Sequence[RunSpec]) -> str | None:
    """The cell-contract violation in ``specs``, if any.

    A cell's specs must share their (scenario, seed, fpr) coordinates —
    they are evaluated against one simulated trace — and their stride,
    because the trace is presampled once for every variant. Returns the
    failure text to fold into each spec's summary, or ``None``.
    """
    cell = (specs[0].scenario, specs[0].seed, specs[0].fpr)
    for spec in specs:
        if (spec.scenario, spec.seed, spec.fpr) != cell:
            return (
                "ConfigurationError: execute_cell needs specs from a "
                f"single (scenario, seed, fpr) cell, got {cell} and "
                f"({spec.scenario}, {spec.seed}, {spec.fpr})"
            )
    strides = {spec.stride for spec in specs}
    if len(strides) > 1:
        return (
            "ConfigurationError: execute_cell needs one stride per "
            f"cell (the trace is presampled once), got {sorted(strides)}"
        )
    noises = {spec.noise for spec in specs}
    if len(noises) > 1:
        return (
            "ConfigurationError: execute_cell needs one noise setting "
            "per cell (the trace is presampled once), got "
            f"{sorted(map(str, noises))}"
        )
    return None


def _cell_trace(
    specs: Sequence[RunSpec],
    store: "TraceStore | None",
    simulate: bool,
) -> tuple[list[RunSummary] | None, object, object]:
    """Simulate (or load) one validated cell's closed-loop trace.

    Returns ``(early, built, trace)``: ``early`` carries the per-spec
    summaries when the cell ends before evaluation (simulation failure,
    store miss, or the paper's collided-run N/A convention), else
    ``None`` with the built scenario and clean trace to evaluate.

    With a ``store``, the cell consults it before simulating — the
    simulate-once path. A hit replaces ``built.run()`` (the dominant
    cost; ``build_scenario`` still runs for the road geometry, which is
    cheap and not recorded) with a memory-mapped column load whose
    evaluation is byte-identical to the fresh trace's. A miss simulates
    and records before returning, collisions included, so repeat
    campaigns skip even the colliding cells — unless ``simulate`` is
    false (a replay), where a miss is a ``TraceError`` failure.
    """
    from repro.scenarios.catalog import build_scenario

    cell = (specs[0].scenario, specs[0].seed, specs[0].fpr)
    try:
        built = build_scenario(cell[0], seed=cell[1])
        trace = None
        if store is not None:
            trace = store.get(store.key(*cell))
        if trace is None and not simulate:
            error = (
                f"TraceError: cell ({cell[0]!r}, seed={cell[1]}, "
                f"fpr={cell[2]:g}) is not in the trace store (replay never "
                "simulates; record it with a campaign --store run)"
            )
            return [_failure_summary(spec, error) for spec in specs], None, None
        if trace is None:
            trace = built.run(fpr=cell[2])
            if store is not None:
                store.put(store.key(*cell), trace)
    except Exception as exc:  # noqa: BLE001 - campaign-level failure capture
        error = f"{type(exc).__name__}: {exc}"
        return [_failure_summary(spec, error) for spec in specs], None, None

    if trace.has_collision:
        # The paper's convention: collided runs report N/A, no estimate.
        return (
            [
                RunSummary(
                    index=spec.index,
                    scenario=spec.scenario,
                    seed=spec.seed,
                    fpr=spec.fpr,
                    variant=spec.variant,
                    collided=True,
                    collision_time=trace.first_collision_time,
                    duration=trace.duration,
                )
                for spec in specs
            ],
            built,
            trace,
        )
    return None, built, trace


def _success_summary(spec: RunSpec, series, trace) -> RunSummary:
    """The Table 1 quantities of one clean evaluated run."""
    return RunSummary(
        index=spec.index,
        scenario=spec.scenario,
        seed=spec.seed,
        fpr=spec.fpr,
        variant=spec.variant,
        collided=False,
        max_fpr=series.max_fpr(),
        max_total_fpr=series.max_total_fpr(spec.cameras),
        fraction_of_provision=series.fraction_of_provision(
            spec.provisioned_fpr, spec.cameras
        ),
        camera_max_fpr={
            camera: series.max_fpr(camera) for camera in spec.cameras
        },
        ticks=len(series.ticks),
        duration=trace.duration,
    )


def _evaluate_cell(
    specs: Sequence[RunSpec], built, trace, samples: TraceSamples
) -> list[RunSummary]:
    """Evaluate a clean cell's trace per variant (per-cell path).

    Offline variants run the :class:`OfflineEvaluator`, online ones
    :meth:`OnlineEstimator.replay` at the stride as the period, all on
    the cell's one presampling.
    """
    summaries = []
    for spec in specs:
        try:
            if spec.predictor is not None:
                series = OnlineEstimator(
                    params=spec.resolved_params(),
                    predictor=build_predictor(spec.predictor, built.road),
                    aggregator=build_aggregator(spec.aggregator),
                    road=built.road,
                    backend=spec.backend,
                    noise=spec.noise,
                ).replay(trace, period=spec.stride, samples=samples)
            else:
                series = OfflineEvaluator(
                    params=spec.resolved_params(),
                    road=built.road,
                    stride=spec.stride,
                    backend=spec.backend,
                    noise=spec.noise,
                ).evaluate(trace, samples=samples)
            summaries.append(_success_summary(spec, series, trace))
        except Exception as exc:  # noqa: BLE001 - per-variant failure capture
            summaries.append(
                _failure_summary(
                    spec,
                    f"{type(exc).__name__}: {exc}",
                    duration=trace.duration,
                )
            )
    return summaries


def execute_cell(
    specs: Sequence[RunSpec],
    store: "TraceStore | None" = None,
) -> list[RunSummary]:
    """Run one (scenario, seed, fpr) cell for every requested variant.

    A one-cell :func:`execute_supercell`. The closed-loop simulation
    depends only on the cell coordinates — ``ZhuyiParams`` variants
    enter nothing but the offline evaluator, which is a pure function
    of (trace, params). So the cell simulates its trace once, presamples
    the trajectories once (also param-independent) and evaluates every
    variant against them: the cross-variant trace cache. A ``store``
    extends the cache across campaigns: the cell loads its recorded
    trace when present and records it otherwise (see
    :func:`_cell_trace`), with byte-identical summaries either way.

    Args:
        specs: the cell's runs — same scenario, seed, fpr and stride,
            one per variant, in grid order.
        store: optional :class:`repro.store.TraceStore` to consult
            before simulating and to record misses into.

    Returns:
        One summary per spec, in the given order. Never raises: a
        cell-contract violation (mixed cell coordinates or mixed
        strides) is folded into every spec's summary, as is a
        simulation failure; an evaluation failure only into the failing
        variant's (with the trace's duration preserved).
    """
    return execute_supercell([specs], store)


def execute_supercell(
    cells: Sequence[Sequence[RunSpec]],
    store: "TraceStore | None" = None,
) -> list[RunSummary]:
    """Run a block of campaign cells, evaluating their traces together.

    The runner's unit of work for a :class:`Campaign`. Each cell still
    simulates its own trace (choreographies are independent), but on a
    vectorized backend the surviving traces evaluate *together*: every
    (trace, tick, actor, variant) row of the block's offline variants
    solves through the shared array programs of
    :func:`repro.core.evaluator.evaluate_trace_block`, amortizing the
    candidate grids, visibility passes and ego profiles across the
    whole block. The ``"scalar"`` backend evaluates each variant
    through the per-tick reference loop instead, and online variants
    replay per variant. Summaries are byte-identical whatever the block
    size (the block kernel's parity contract).

    Never raises: contract violations, simulation failures and
    collisions resolve per cell, and if the block kernel itself fails
    the surviving cells are retried per variant through
    :func:`_evaluate_cell` (keeping per-variant failure granularity).

    Args:
        cells: the block's cells, each a single-cell spec list sharing
            one variant sequence and stride across the block (the
            :func:`_group_supercells` grouping contract).
        store: optional :class:`repro.store.TraceStore` to consult
            before simulating and to record misses into.

    Returns:
        One summary per spec, cells in the given order, specs in
        per-cell order.
    """
    return _execute_cells(cells, store, simulate=True)


def _execute_cells(
    cells: Sequence[Sequence[RunSpec]],
    store: "TraceStore | None",
    simulate: bool,
) -> list[RunSummary]:
    """The cell block both grid kinds' tasks run (see
    :func:`execute_supercell`); ``simulate=False`` only loads traces."""
    results: list[list[RunSummary]] = [[] for _ in cells]
    survivors: list[_Survivor] = []
    opened: list[ScenarioTrace] = []
    try:
        for pos, specs in enumerate(cells):
            if not specs:
                continue
            contract_error = _cell_contract_error(specs)
            if contract_error is not None:
                results[pos] = [
                    _failure_summary(spec, contract_error) for spec in specs
                ]
                continue
            early, built, trace = _cell_trace(specs, store, simulate)
            if trace is not None:
                opened.append(trace)
            if early is None:
                early, samples = _cell_samples(specs, trace)
            if early is not None:
                results[pos] = early
            else:
                survivors.append((pos, specs, built, trace, samples))
        _evaluate_supercell(results, survivors)
    finally:
        # Drop block-local views before closing the traces' columns.
        survivors = []
        for trace in opened:
            trace.close()
    return [summary for cell_result in results for summary in cell_result]


def _cell_samples(
    specs: Sequence[RunSpec], trace
) -> tuple[list[RunSummary] | None, TraceSamples | None]:
    """``(early, samples)``: a clean cell's one presampling, which all
    its variants read (strides and noise are cell-uniform), or the
    per-variant failures when presampling raises."""
    try:
        return None, presample_trace(
            trace, specs[0].stride, noise=specs[0].noise
        )
    except Exception as exc:  # noqa: BLE001 - per-cell failure capture
        error = f"{type(exc).__name__}: {exc}"
        return [
            _failure_summary(spec, error, duration=trace.duration)
            for spec in specs
        ], None


def _offline(specs: Sequence[RunSpec]) -> list[RunSpec]:
    return [spec for spec in specs if spec.predictor is None]


def _evaluate_supercell(
    results: list[list[RunSummary]],
    survivors: list[_Survivor],
) -> None:
    """Evaluate a block's clean traces into ``results``.

    The offline variants of every cell sharing the first such cell's
    variant sequence and stride solve together through the block
    kernel. Online variants, the scalar backend and (defensively —
    :func:`_group_supercells` never builds such blocks) mismatched
    cells evaluate per variant through :func:`_evaluate_cell`.
    """

    def block_key(specs):
        offline = _offline(specs)
        if not offline or offline[0].backend == "scalar":
            return None
        return [spec.resolved_params() for spec in offline], offline[0].stride

    keys = [block_key(specs) for _, specs, _, _, _ in survivors]
    lead = next((key for key in keys if key is not None), None)
    block = [
        entry
        for entry, key in zip(survivors, keys)
        if lead is not None and key == lead
    ]
    solved = _solve_block(block, *lead) if block else {}
    for pos, specs, built, trace, samples in survivors:
        if pos not in solved:
            results[pos] = _evaluate_cell(specs, built, trace, samples)
            continue
        offline = iter(solved[pos])
        online = iter(
            _evaluate_cell(
                [spec for spec in specs if spec.predictor is not None],
                built,
                trace,
                samples,
            )
        )
        results[pos] = [
            next(offline if spec.predictor is None else online)
            for spec in specs
        ]


def _solve_block(
    block: list[_Survivor],
    variants: list,
    stride: float,
) -> dict[int, list[RunSummary]]:
    """The offline summaries of a block's cells, keyed by position."""
    try:
        # Per-cell noise rides inside the samples (detection masks and
        # perturbed states), so cells with different derived noise
        # seeds still share one block's kernels.
        jobs = [
            TraceJob(
                trace=trace,
                samples=samples,
                l0=trace.default_l0(),
                road=built.road,
            )
            for _, _, built, trace, samples in block
        ]
        rows = evaluate_trace_block(jobs, variants, stride)
        return {
            pos: [
                _success_summary(spec, series, trace)
                for spec, series in zip(_offline(specs), row)
            ]
            for (pos, specs, _, trace, _), row in zip(block, rows)
        }
    except Exception:  # noqa: BLE001 - block-level failure capture
        # A block kernel error retries the cells per variant, which
        # keeps per-variant failure granularity instead of failing the
        # whole block.
        return {
            pos: _evaluate_cell(_offline(specs), built, trace, samples)
            for pos, specs, built, trace, samples in block
        }


def _group_cells(specs: Sequence[RunSpec]) -> list[list[RunSpec]]:
    """Group consecutive specs sharing a (scenario, seed, fpr) cell.

    Grid order puts variants innermost, so all of a cell's variants are
    adjacent; grouping preserves overall run order.
    """
    cells: list[list[RunSpec]] = []
    for spec in specs:
        key = (spec.scenario, spec.seed, spec.fpr)
        if cells and (
            cells[-1][0].scenario,
            cells[-1][0].seed,
            cells[-1][0].fpr,
        ) == key:
            cells[-1].append(spec)
        else:
            cells.append([spec])
    return cells


def _group_supercells(
    cells: Sequence[Sequence[RunSpec]], limit: int
) -> list[list[Sequence[RunSpec]]]:
    """Group consecutive cells into :func:`execute_supercell` blocks.

    Consecutive cells join a block while they share the same variant
    sequence and stride (the block kernel's grouping contract — grid
    expansion makes this true for every cell of one campaign) and the
    block holds fewer than ``limit`` cells. The cap bounds both a
    worker's peak memory (each cell's trace and presamples are alive
    at once) and the scheduling granularity of the parallel path.
    """
    blocks: list[list[Sequence[RunSpec]]] = []
    key = None
    for cell in cells:
        cell_key = (
            tuple(spec.variant for spec in cell),
            cell[0].stride if cell else None,
        )
        if blocks and cell_key == key and len(blocks[-1]) < limit:
            blocks[-1].append(cell)
        else:
            blocks.append([cell])
            key = cell_key
    return blocks


class _OrderedSink:
    """Streams summaries to a writer in a fixed index order.

    Parallel cells complete out of order; the sink buffers completions
    until every earlier index in the sequence has been written, keeping
    the on-disk line order deterministic (and hence resumable files
    byte-comparable to uninterrupted ones). The buffer is bounded by
    the executor's admission control: at most ``_MAX_PENDING`` tasks
    are in flight, each completing at most ``supercell x variants``
    summaries, so no more than ``_MAX_PENDING x supercell x variants``
    summaries ever wait here for an earlier index. Each written line
    is counted on the run's :class:`RunClock`.
    """

    def __init__(
        self,
        sequence: Sequence[int],
        writer: CampaignWriter | None,
        clock: RunClock,
    ):
        self._sequence = list(sequence)
        self._writer = writer
        self._clock = clock
        self._pos = 0
        self._buffer: dict[int, RunSummary] = {}

    def push(self, summary: RunSummary) -> None:
        if self._writer is None:
            return
        self._buffer[summary.index] = summary
        while (
            self._pos < len(self._sequence)
            and self._sequence[self._pos] in self._buffer
        ):
            index = self._sequence[self._pos]
            self._writer.write(self._buffer.pop(index))
            self._clock.row_written(index)
            self._pos += 1


@dataclass
class CampaignRunner:
    """Executes a grid — a campaign or a replay plan — with a
    configurable worker count.

    Determinism guarantees: summaries are pure functions of their run
    specs, so for a fixed grid the summaries (and the JSONL run lines)
    are byte-identical across worker counts, across machines, across
    shard/merge splits, and across kill/resume cycles. Only wall-clock
    metadata (the footer's ``elapsed``, the heartbeat sidecar) varies.

    Attributes:
        workers: 1 runs in-process; N > 1 fans out over N processes.
        supercell: on the ``"crosstrace"`` backend, how many cells one
            block task evaluates together through the shared
            cross-trace kernels. 1 is per-cell execution, which the
            other backends always use; larger blocks amortize more but
            hold more traces in a worker's memory at once.
        store: optional :class:`repro.store.TraceStore`. Campaign cells
            consult it before simulating and record their traces on
            miss, so a campaign only ever simulates each
            ``(scenario, seed, fpr)`` once across all runs sharing the
            store; a replay plan's cells read it and nothing else, so a
            replay needs one. The store is plain picklable state (a
            root path plus version pins): parallel workers each open
            bundles read-only via memmap, no trace bytes cross the
            process boundary.
    """

    workers: int = 1
    supercell: int = 4
    store: "TraceStore | None" = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError(
                f"worker count must be at least 1, got {self.workers}"
            )
        if self.supercell < 1:
            raise ConfigurationError("supercell must be at least 1")

    def run(
        self,
        campaign: Grid,
        progress: ProgressHook | None = None,
        *,
        out: str | Path | None = None,
        shard: tuple[int, int] | None = None,
    ) -> CampaignResult:
        """Execute a grid (or one shard of it).

        Args:
            campaign: the grid to run — a :class:`Campaign` or a
                :class:`~repro.store.replay.ReplayPlan`.
            progress: called after each completed run with
                ``(done, total, summary)``.
            out: JSONL path. When given, the header is written before
                the first run and each summary is appended (flushed) as
                it completes, so a killed campaign keeps its finished
                runs; the ``completed`` footer lands only at the end.
                ``<out>.heartbeat`` reports progress meanwhile.
            shard: ``(index, count)`` to execute only that
                :meth:`Grid.shard` of the grid.

        Returns:
            The (shard-)result with all summaries, sorted by index.

        Raises:
            ConfigurationError: a replay plan on a runner without a
                store, or a malformed shard.
        """
        execute = self._block_task(campaign)
        specs = campaign.runs() if shard is None else campaign.shard(*shard)
        writer = (
            None
            if out is None
            else CampaignWriter.create(
                out, campaign, shard=shard, store_root=self._store_root()
            )
        )
        return self._execute(
            campaign, execute, specs, cached={}, writer=writer, out=out,
            shard=shard, progress=progress,
        )

    def resume(
        self,
        path: str | Path,
        progress: ProgressHook | None = None,
        *,
        partial: CampaignResult | None = None,
        retry_failed: bool = False,
    ) -> CampaignResult:
        """Finish a partial campaign or replay JSONL file in place.

        Reloads the file, keeps every summary already present (they are
        never re-executed — determinism makes re-running them pointless),
        executes exactly the missing grid indices of the shard the
        header names, and streams them to the same file. When the
        existing summaries are a clean prefix of the expected run order
        in the grid kind's current schema (the normal kill case) the
        file is appended to; campaign schema-1 or out-of-order partials
        are rewritten in canonical order via an atomic
        temp-file-and-rename, so a crash mid-rewrite never destroys the
        original. Either way the finished file matches an uninterrupted
        run's, footer wall-clock aside. Resuming an already-complete
        canonical file is a no-op.

        ``WorkerError`` failures — a worker process dying, an
        environment accident rather than a property of the run — are
        *not* kept: their cells re-execute (see
        :meth:`CampaignResult.resume_cache`). Deterministic failures
        keep their summaries unless ``retry_failed`` purges them too.

        Args:
            path: a campaign (schema 1 or 2) or replay JSONL file.
            progress: called per newly executed run with
                ``(done, remaining_total, summary)``.
            partial: the already-loaded contents of ``path``, to skip
                re-reading the file (the CLI loads it for its banner).
            retry_failed: also re-execute deterministic ``error``
                summaries (``repro campaign --resume --retry-failed``) —
                on top of the always-on ``WorkerError`` auto-retry.
                Works on completed files too: the errored cells re-run
                and the file is rewritten canonically.

        Returns:
            The completed result (the file's summaries plus the
            freshly executed remainder).
        """
        if partial is None:
            partial = CampaignResult.load_jsonl(path)
        grid = partial.campaign
        execute = self._block_task(grid)
        canonical = (
            partial.source_schema == grid.SCHEMA and not partial.source_torn
        )
        cached = partial.resume_cache(retry_failed=retry_failed)
        retrying = len(cached) < len(partial.summaries)
        if (
            partial.is_complete
            and canonical
            and partial.source_footer
            and not retrying
        ):
            return partial
        expected = partial.expected_runs()
        prefix = {spec.index for spec in expected[: len(cached)]}
        appendable = (
            canonical
            and not partial.source_footer
            and not retrying  # stale WorkerError lines need purging
            and prefix == set(cached)
        )
        if appendable:
            # The normal kill case: the file is a clean prefix of the
            # expected order — continue it in place. (A complete but
            # footer-less file lands here too: zero runs execute and
            # only the footer is appended.)
            writer = CampaignWriter.append_to(path, grid)
        else:
            # Schema-1, torn-tail, out-of-order, or otherwise
            # non-canonical partials are rewritten in canonical order —
            # atomically, so a crash mid-rewrite cannot destroy the
            # completed runs the original file holds.
            writer = CampaignWriter.create(
                path, grid, shard=partial.shard, atomic=True,
                store_root=self._store_root(),
            )
        return self._execute(
            grid,
            execute,
            expected,
            cached=cached,
            writer=writer,
            out=path,
            shard=partial.shard,
            progress=progress,
            rewrite=not appendable,
        )

    def _block_task(self, grid: Grid) -> Callable:
        """The task that runs a block of ``grid``'s cells.

        :func:`execute_supercell` for a campaign;
        :func:`repro.store.replay.execute_replay_cell` — store reads
        only, never a simulation — for a replay plan, which therefore
        needs the runner's store.
        """
        if isinstance(grid, Campaign):
            return partial(execute_supercell, store=self.store)
        if self.store is None:
            raise ConfigurationError(
                "a replay reads its traces from a trace store; give the "
                "runner one (CampaignRunner(store=...), --store DIR)"
            )
        from repro.store.replay import execute_replay_cell

        return partial(execute_replay_cell, store=self.store)

    def _store_root(self) -> str | None:
        return None if self.store is None else str(self.store.root)

    def _execute(
        self,
        grid: Grid,
        execute: Callable,
        specs: Sequence[RunSpec],
        cached: dict[int, RunSummary],
        writer: CampaignWriter | None,
        out: str | Path | None,
        shard: tuple[int, int] | None,
        progress: ProgressHook | None,
        rewrite: bool = False,
    ) -> CampaignResult:
        todo = [spec for spec in specs if spec.index not in cached]
        sequence = (
            [spec.index for spec in specs]
            if rewrite
            else [spec.index for spec in todo]
        )
        clock = RunClock(
            out,
            total=len(specs),
            done=len(specs) - len(sequence),
            shard=shard,
        )
        sink = _OrderedSink(sequence, writer, clock)
        fresh: list[RunSummary] = []

        def deliver(summaries: list[RunSummary]) -> None:
            for summary in summaries:
                fresh.append(summary)
                sink.push(summary)
                if progress is not None:
                    progress(len(fresh), len(todo), summary)

        try:
            if rewrite:
                for summary in cached.values():
                    sink.push(summary)
            self._run(self._tasks(execute, todo), deliver)
            elapsed = clock.finish()
            if writer is not None:
                writer.finish(workers=self.workers, elapsed=elapsed)
        finally:
            if writer is not None:
                writer.close()
        return CampaignResult(
            campaign=grid,
            summaries=list(cached.values()) + fresh,
            workers=self.workers,
            elapsed=elapsed,
            shard=shard,
            store_root=self._store_root(),
        )

    def _tasks(
        self, execute: Callable, specs: list[RunSpec]
    ) -> list[tuple[Callable, object, list[RunSpec]]]:
        """The executable units of a spec list, in run order.

        ``execute`` blocks of up to :attr:`supercell` cells on the
        ``"crosstrace"`` backend (a grid-level setting, so the first
        spec decides), of one cell otherwise. Each task carries its
        flat spec list for worker-crash failure capture.
        """
        cells = _group_cells(specs)
        size = (
            self.supercell
            if specs and specs[0].backend == "crosstrace"
            else 1
        )
        return [
            (execute, block, [spec for cell in block for spec in cell])
            for block in _group_supercells(cells, size)
        ]

    def _run(
        self,
        tasks: list[tuple[Callable, object, list[RunSpec]]],
        deliver: Callable[[list[RunSummary]], None],
    ) -> None:
        """Execute ``tasks``, handing each one's summaries to ``deliver``:
        in order in-process on one worker, as they complete on a pool."""
        if self.workers == 1:
            for execute, work, _ in tasks:
                deliver(execute(work))
            return
        queue = list(reversed(tasks))
        pending: dict = {}
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            while queue or pending:
                while queue and len(pending) < _MAX_PENDING:
                    execute, work, flat = queue.pop()
                    pending[pool.submit(execute, work)] = flat
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    deliver(self._collect(future, pending.pop(future)))

    def _collect(self, future, specs: list[RunSpec]) -> list[RunSummary]:
        try:
            return future.result()
        except Exception:  # noqa: BLE001 - e.g. a worker killed mid-run
            error = "WorkerError: " + traceback.format_exc(limit=1).strip()
            return [_failure_summary(spec, error) for spec in specs]
