"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run <scenario>`` — one closed-loop run + offline Zhuyi evaluation.
* ``mrf <scenario>`` — minimum required FPR, run as a campaign.
* ``sweep [gap]`` — Figure 8 style sensitivity heatmap.
* ``campaign [scenarios ...]`` — batch scenario x seed x FPR sweep,
  with streaming ``--out``, ``--resume``, ``--shard I/N``, the
  simulate-once ``--store DIR`` and ``--fuzz-archive`` genome loading.
* ``fuzz <family>`` — evolutionary worst-case scenario search; each
  generation runs as a campaign, worst genomes are archived as
  reproducible catalog entries.
* ``replay`` — re-estimate recorded traces from a store under new
  parameter/predictor/aggregator variants, without simulating.
* ``campaign-merge <parts ...>`` — recombine shard JSONL files.
* ``scenarios`` — list the catalog.

See docs/CAMPAIGNS.md for campaign workflows and exit codes.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from repro import OfflineEvaluator, build_scenario
from repro.core.latency import BACKENDS
from repro.analysis.report import format_table, render_heatmap
from repro.analysis.sensitivity import sweep_min_fpr
from repro.errors import ConfigurationError
from repro.perception.pipeline import check_fpr
from repro.perception.sensor import ANALYZED_CAMERAS


def _cmd_scenarios(_: argparse.Namespace) -> int:
    from repro.scenarios.catalog import SCENARIOS

    rows = [
        (spec.name, f"{spec.ego_speed_mph:g}", spec.paper_mrf, spec.description)
        for spec in SCENARIOS.values()
    ]
    print(format_table(["Scenario", "mph", "paper MRF", "Description"], rows))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        scenario = build_scenario(args.scenario, seed=args.seed)
        check_fpr(args.fpr)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"Running {args.scenario!r} seed={args.seed} fpr={args.fpr} ...")
    trace = scenario.run(fpr=args.fpr)
    print(f"  duration {trace.duration:.1f} s, collision: {trace.has_collision}")
    if args.save_trace:
        # Before the collision exit: a collided trace is the one most
        # worth inspecting.
        trace.save_json(args.save_trace)
        print(f"trace written to {args.save_trace}")
    if trace.has_collision:
        print("  (collision: Zhuyi evaluation skipped, as in the paper)")
        return 1
    series = OfflineEvaluator(road=scenario.road).evaluate(trace)
    rows = [
        (camera, f"{series.max_fpr(camera):.1f}")
        for camera in ANALYZED_CAMERAS
    ]
    print(format_table(["Camera", "max estimated FPR"], rows))
    print(
        f"peak total demand {series.max_total_fpr():.1f} frames/s "
        f"({series.fraction_of_provision():.0%} of 3x30 FPR)"
    )
    return 0


def _cmd_mrf(args: argparse.Namespace) -> int:
    from repro.batch import (
        Campaign,
        CampaignRunner,
        campaign_table1,
        summarize_failures,
    )

    try:
        campaign = Campaign(
            scenarios=(args.scenario,),
            seeds=tuple(range(args.seeds)),
            fprs=tuple(float(x) for x in args.grid.split(",")),
        )
    except (ConfigurationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"Searching MRF for {args.scenario!r} over FPR {campaign.fprs} "
        f"with {len(campaign.seeds)} seed(s) ..."
    )
    result = CampaignRunner().run(campaign)
    (row,) = campaign_table1(result)
    print(f"minimum required FPR: {row.mrf.label}")
    print(f"collision rates: {list(row.mrf.collision_fprs) or 'none'}")
    failures = summarize_failures(result)
    if failures:
        print(failures, file=sys.stderr)
        return 1
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        grid = sweep_min_fpr(
            gap=args.gap,
            ego_speeds_mph=np.linspace(0.0, 70.0, args.resolution),
            actor_speeds_mph=np.linspace(0.0, 70.0, args.resolution),
        )
    except (ConfigurationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"s_n = {args.gap:g} m (x: v_e0, y: v_an, 0->70 mph)")
    print(render_heatmap(grid.min_fpr))
    print(f"max finite FPR: {grid.max_finite_fpr():.1f}")
    return 0


def _parse_shard(text: str) -> tuple[int, int]:
    """Parse ``I/N`` (e.g. ``2/8``) into a (shard index, count) pair."""
    try:
        index, count = text.split("/", 1)
        return int(index), int(count)
    except ValueError as exc:
        raise ConfigurationError(
            f"--shard wants I/N (e.g. 2/8), got {text!r}"
        ) from exc


def _campaign_progress(args: argparse.Namespace):
    def progress(done: int, total: int, summary) -> None:
        if args.quiet:
            return
        outcome = (
            "FAILED" if not summary.ok
            else "collision" if summary.collided
            else f"max FPR {summary.max_fpr:.1f}"
        )
        print(
            f"  [{done}/{total}] {summary.scenario} seed={summary.seed} "
            f"fpr={summary.fpr:g}: {outcome}"
        )

    return progress


def _print_campaign_result(
    result, render, summarize_failures, executed: int | None = None
) -> int:
    """Print the table and summary line; returns the exit code.

    ``executed`` is how many runs this invocation actually ran (resume
    reuses cached summaries, so the wall clock only covers the fresh
    ones); defaults to all of them.
    """
    print(render(result))
    if executed is None:
        executed = len(result)
    note = "" if executed == len(result) else f" ({executed} executed)"
    print(
        f"{len(result)} runs{note} in {result.elapsed:.1f} s "
        f"({result.elapsed / max(executed, 1):.2f} s/run, "
        f"{result.workers} worker(s)); "
        f"{len(result.collisions())} collision(s)"
    )
    failures = summarize_failures(result)
    if failures:
        print(failures, file=sys.stderr)
    return 1 if result.failures() else 0


#: Estimation settings a recorded campaign file fixes.
_RECORDED_SETTINGS = (
    "stride", "backend", "miss_rate", "position_noise", "noise_seed",
)


def _store(args: argparse.Namespace):
    """The campaign's :class:`~repro.store.TraceStore`, if one was asked
    for. Constructed lazily so ``repro campaign`` without ``--store``
    never imports (or fingerprints) the store package. An executor
    setting like ``--workers``, so it composes with ``--resume``."""
    if not getattr(args, "store", None):
        return None
    from repro.store import TraceStore

    return TraceStore(args.store)


def _flags_given(
    args: argparse.Namespace, command: list[str], names: tuple[str, ...]
) -> bool:
    """Whether any of ``names`` differs from its default in ``command``:
    the settings a recorded file fixes, which a flag may not override."""
    defaults = build_parser().parse_args(command)
    return any(getattr(args, name) != getattr(defaults, name) for name in names)


def _load_fuzz_archives(paths) -> int | None:
    """Register ``--fuzz-archive`` genomes; an exit code on failure.

    Also exports ``REPRO_FUZZ_RECIPES`` so spawn-method workers (and any
    process re-validating the grid from a JSONL header) can resolve the
    fuzzed names themselves.
    """
    from repro.scenarios.fuzzed import RECIPES_ENV, load_fuzzed_archive

    names: list[str] = []
    try:
        for path in paths:
            names.extend(load_fuzzed_archive(path))
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    os.environ[RECIPES_ENV] = os.pathsep.join(str(p) for p in paths)
    print(f"fuzz archive: {len(names)} scenario(s) registered")
    return None


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.batch import (
        Campaign,
        CampaignResult,
        CampaignRunner,
        render_campaign_table,
        summarize_failures,
    )
    from repro.errors import TraceError
    from repro.scenarios.catalog import SCENARIOS, speed_sweep

    if args.expand_speeds:
        added = speed_sweep()
        print(f"speed sweep: {len(added)} variant scenario(s) registered")

    if args.fuzz_archive:
        code = _load_fuzz_archives(args.fuzz_archive)
        if code is not None:
            return code

    if args.retry_failed and not args.resume:
        print(
            "error: --retry-failed only makes sense with --resume "
            "(a fresh campaign has no failures to retry)",
            file=sys.stderr,
        )
        return 2

    if args.resume:
        grid_flags_given = _flags_given(
            args, ["campaign"], ("seeds", "fprs", *_RECORDED_SETTINGS)
        )
        if args.scenarios or args.shard or args.out or grid_flags_given:
            print(
                "error: --resume takes the whole grid (scenarios, "
                "seeds, FPRs, stride, backend, noise, shard) and the "
                "output path from the existing file; drop those "
                "arguments",
                file=sys.stderr,
            )
            return 2
        try:
            runner = CampaignRunner(workers=args.workers, store=_store(args))
            partial = CampaignResult.load_jsonl(args.resume)
            reusable = len(partial.resume_cache(retry_failed=args.retry_failed))
            todo = len(partial.expected_runs()) - reusable
            print(
                f"Resuming {args.resume}: {reusable} of "
                f"{len(partial.expected_runs())} runs already recorded, "
                f"{todo} to go with {args.workers} worker(s) ..."
            )
            result = runner.resume(
                args.resume,
                _campaign_progress(args),
                partial=partial,
                retry_failed=args.retry_failed,
            )
        except (ConfigurationError, TraceError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        code = _print_campaign_result(
            result, render_campaign_table, summarize_failures, executed=todo
        )
        print(f"campaign written to {args.resume}")
        return code

    scenarios = tuple(args.scenarios) if args.scenarios else tuple(SCENARIOS)
    try:
        from repro.perception.noise import PerceptionNoise

        shard = _parse_shard(args.shard) if args.shard else None
        noise = PerceptionNoise(
            miss_rate=args.miss_rate,
            position_noise=args.position_noise,
            seed=args.noise_seed,
        )
        campaign = Campaign(
            scenarios=scenarios,
            seeds=tuple(range(args.seeds)),
            fprs=tuple(float(x) for x in args.fprs.split(",")),
            stride=args.stride,
            backend=args.backend,
            noise=noise if noise.enabled else None,
        )
        # Validates the shard index/count before any run executes.
        total = (
            campaign.size if shard is None else len(campaign.shard(*shard))
        )
        runner = CampaignRunner(workers=args.workers, store=_store(args))
    except (ConfigurationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    shard_note = "" if shard is None else f" (shard {shard[0]}/{shard[1]})"
    print(
        f"Campaign: {len(campaign.scenarios)} scenario(s) x "
        f"{len(campaign.seeds)} seed(s) x {len(campaign.fprs)} FPR(s) = "
        f"{campaign.size} runs{shard_note}, {total} to execute "
        f"with {args.workers} worker(s) ..."
    )

    try:
        result = runner.run(
            campaign, _campaign_progress(args), out=args.out, shard=shard
        )
    except OSError as exc:
        if args.out is None:
            raise  # not an output-file problem; don't misattribute it
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    code = _print_campaign_result(
        result, render_campaign_table, summarize_failures
    )
    if args.out:
        print(f"campaign written to {args.out}")
    return code


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.batch import CampaignRunner
    from repro.fuzz import FuzzConfig, run_fuzz

    # --smoke is a CI-sized preset: any explicitly given flag wins.
    def preset(value, smoke_default, full_default):
        if value is not None:
            return value
        return smoke_default if args.smoke else full_default

    try:
        config = FuzzConfig(
            family=args.family,
            population=preset(args.population, 4, 16),
            generations=preset(args.generations, 2, 8),
            elite=preset(args.elite, 1, 2),
            tournament=preset(args.tournament, 2, 3),
            mutation_scale=args.mutation_scale,
            seed=args.seed,
            fitness=args.fitness,
            sim_seeds=tuple(range(args.seeds)),
            fprs=tuple(float(x) for x in args.fprs.split(",")),
            stride=preset(args.stride, 0.5, 0.05),
            backend=args.backend,
            archive_size=args.archive_size,
        )
        runner = CampaignRunner(workers=args.workers, store=_store(args))
    except (ConfigurationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(
        f"Fuzz search: family {config.family!r}, {config.population} "
        f"genome(s) x {config.generations} generation(s), fitness "
        f"{config.fitness!r}, backend {config.backend!r}, seed "
        f"{config.seed} -> {args.out}"
    )
    try:
        result = run_fuzz(
            config,
            args.out,
            runner=runner,
            progress=None if args.quiet else print,
        )
    except (ConfigurationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    best = result.best
    if best is None:
        print(
            "error: no genome produced a usable fitness "
            "(every run failed)",
            file=sys.stderr,
        )
        return 1
    base = (
        "unknown"
        if result.base_fitness is None
        else f"{result.base_fitness:.3f}"
    )
    verdict = (
        "exceeds"
        if result.base_fitness is not None
        and best["fitness"] > result.base_fitness
        else "does not exceed"
    )
    print(
        f"best: {best['name']} fitness {best['fitness']:.3f} "
        f"({verdict} base {base})"
    )
    print(f"archive written to {result.archive_path}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.batch import CampaignResult
    from repro.errors import TraceError
    from repro.perception.noise import PerceptionNoise
    from repro.store import (
        ReplayPlan,
        ReplayService,
        ReplayVariant,
        TraceStore,
    )

    if args.resume and not args.out:
        print("error: --resume needs --out", file=sys.stderr)
        return 2

    if args.from_campaign and _flags_given(
        args, ["replay", "--store", args.store], _RECORDED_SETTINGS
    ):
        print(
            "error: --from-campaign takes the stride, backend and noise "
            "from the recorded campaign; drop --stride, --backend, "
            "--miss-rate, --position-noise and --noise-seed",
            file=sys.stderr,
        )
        return 2

    try:
        store = TraceStore(args.store)
        variants = tuple(
            ReplayVariant(
                name=spec,
                predictor=spec.split(":", 1)[0],
                aggregator=(
                    spec.split(":", 1)[1] if ":" in spec else None
                ),
            )
            for spec in (args.online or ())
        )
        if args.from_campaign:
            campaign = CampaignResult.load_jsonl(args.from_campaign).campaign
            plan = ReplayPlan.from_campaign(
                campaign, variants=variants or None
            )
        else:
            noise = PerceptionNoise(
                miss_rate=args.miss_rate,
                position_noise=args.position_noise,
                seed=args.noise_seed,
            )
            plan = ReplayPlan.from_store(
                store,
                variants=variants or (ReplayVariant(name="default"),),
                stride=args.stride,
                backend=args.backend,
                noise=noise if noise.enabled else None,
            )
        shard = _parse_shard(args.shard) if args.shard else None
        total = plan.size if shard is None else len(plan.shard(*shard))
        shard_note = "" if shard is None else f" (shard {shard[0]}/{shard[1]})"
        print(
            f"Replay: {len(plan.cells)} stored cell(s) x "
            f"{len(plan.variants)} variant(s){shard_note}, "
            f"{total} row(s) from {args.store} ..."
        )

        def progress(done: int, count: int, row: dict) -> None:
            if args.quiet:
                return
            outcome = (
                "FAILED" if row.get("error")
                else "collision" if row.get("collided")
                else f"max FPR {row['max_fpr']:.1f}"
            )
            print(
                f"  [{done}/{count}] {row['scenario']} seed={row['seed']} "
                f"fpr={row['fpr']:g} [{row['variant']}]: {outcome}"
            )

        rows = ReplayService(store=store, workers=args.workers).run(
            plan,
            out=args.out,
            shard=shard,
            progress=progress,
            resume=args.resume,
        )
    except (ConfigurationError, TraceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failures = [row for row in rows if row.get("error")]
    print(f"{len(rows)} row(s) replayed; {len(failures)} failure(s)")
    if failures:
        for row in failures[:5]:
            print(
                f"  {row['scenario']} seed={row['seed']} "
                f"fpr={row['fpr']:g} [{row['variant']}]: {row['error']}",
                file=sys.stderr,
            )
    if args.out:
        print(f"replay written to {args.out}")
    return 1 if failures else 0


def _cmd_campaign_merge(args: argparse.Namespace) -> int:
    from repro.batch import (
        CampaignResult,
        render_campaign_table,
        summarize_failures,
    )
    from repro.errors import TraceError

    try:
        parts = [CampaignResult.load_jsonl(path) for path in args.parts]
        merged = CampaignResult.merge(parts)
    except (ConfigurationError, TraceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"Merged {len(parts)} part(s): {len(merged)} of "
        f"{merged.campaign.size} runs present"
    )
    code = _print_campaign_result(
        merged, render_campaign_table, summarize_failures
    )
    if not merged.is_complete:
        missing = [spec.index for spec in merged.missing_runs()]
        print(
            f"incomplete merge: {len(missing)} run(s) missing "
            f"(indices {missing[:10]}{'...' if len(missing) > 10 else ''})",
            file=sys.stderr,
        )
        code = max(code, 1)
    if args.out:
        try:
            merged.save_jsonl(args.out)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
        print(f"merged campaign written to {args.out}")
    return code


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import run_lint

    return run_lint(args)


def _fuzz_family_names() -> list[str]:
    from repro.scenarios.fuzzed import FUZZ_FAMILIES

    return list(FUZZ_FAMILIES)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Zhuyi (DAC 2022) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("scenarios", help="list the scenario catalog")

    run = sub.add_parser("run", help="closed-loop run + Zhuyi evaluation")
    run.add_argument("scenario", help="scenario name (see `scenarios`)")
    run.add_argument("--fpr", type=float, default=30.0)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--save-trace", default=None, metavar="PATH")

    mrf = sub.add_parser(
        "mrf", help="minimum required FPR over a grid (one campaign)"
    )
    mrf.add_argument("scenario", help="scenario name (see `scenarios`)")
    mrf.add_argument("--grid", default="1,2,3,4,5,6,8,10,15,30")
    mrf.add_argument("--seeds", type=int, default=1)

    sweep = sub.add_parser("sweep", help="Figure 8 sensitivity heatmap")
    sweep.add_argument("gap", type=float, nargs="?", default=30.0)
    sweep.add_argument("--resolution", type=int, default=24)

    campaign = sub.add_parser(
        "campaign", help="batch scenario x seed x FPR sweep"
    )
    campaign.add_argument(
        "scenarios",
        nargs="*",
        metavar="SCENARIO",
        help="scenario names (default: the whole catalog)",
    )
    campaign.add_argument(
        "--seeds", type=int, default=1, help="jitter seeds 0..N-1 (default 1)"
    )
    campaign.add_argument(
        "--fprs",
        default="30",
        help="comma-separated fixed FPR settings (default 30)",
    )
    campaign.add_argument(
        "--workers", type=int, default=1, help="parallel worker processes"
    )
    campaign.add_argument(
        "--stride", type=float, default=0.05, help="evaluation stride (s)"
    )
    campaign.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="stream results to a JSONL file as runs finish (with a "
        "PATH.heartbeat progress sidecar)",
    )
    campaign.add_argument(
        "--backend",
        choices=list(BACKENDS),
        default="batched",
        help="latency-solver backend: the batched array kernel "
        "(default), the scalar reference loop, or crosstrace — "
        "whole blocks of cells solved through shared cross-trace "
        "kernels — identical results",
    )
    campaign.add_argument(
        "--miss-rate",
        type=float,
        default=0.0,
        help="evaluation-time detection miss probability per actor "
        "tick, in [0, 1) (default 0: noise-free)",
    )
    campaign.add_argument(
        "--position-noise",
        type=float,
        default=0.0,
        help="evaluation-time perceived-position jitter sigma in "
        "metres (default 0: noise-free)",
    )
    campaign.add_argument(
        "--noise-seed",
        type=int,
        default=0,
        help="root seed of the counter-based noise draws (each cell "
        "derives its own child seed; default 0)",
    )
    campaign.add_argument(
        "--resume",
        default=None,
        metavar="PATH",
        help="finish a partial campaign JSONL in place (grid comes "
        "from the file; incompatible with scenario/--shard/--out)",
    )
    campaign.add_argument(
        "--retry-failed",
        action="store_true",
        help="with --resume: also re-execute deterministic 'error' "
        "summaries (WorkerError crashes always re-execute)",
    )
    campaign.add_argument(
        "--shard",
        default=None,
        metavar="I/N",
        help="run only shard I of N (e.g. 2/8); merge parts later "
        "with campaign-merge",
    )
    campaign.add_argument(
        "--expand-speeds",
        action="store_true",
        help="register cut-out/cut-in ego-speed variants first",
    )
    campaign.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="simulate-once trace store: cells load their recorded "
        "trace from DIR instead of re-simulating, and record it there "
        "on a miss (composes with --resume and --shard)",
    )
    campaign.add_argument(
        "--fuzz-archive",
        action="append",
        default=None,
        metavar="FILE",
        help="register the fuzzed genomes recorded in a repro-fuzz "
        "archive/recipes JSON first, so its fuzzed_<family>_<digest> "
        "scenario names are runnable (repeatable; composes with "
        "--resume and --shard)",
    )
    campaign.add_argument(
        "--quiet", action="store_true", help="suppress per-run progress lines"
    )

    fuzz = sub.add_parser(
        "fuzz",
        help="evolutionary worst-case scenario search "
        "(generations run as campaigns)",
    )
    fuzz.add_argument(
        "family",
        choices=sorted(_fuzz_family_names()),
        help="fuzzable scenario family",
    )
    fuzz.add_argument(
        "--out",
        required=True,
        metavar="DIR",
        help="output directory: gen_<NNN>.jsonl generation campaigns, "
        "recipe sidecars, archive.json and search.json; re-running "
        "with the same seed/config resumes and reproduces byte-"
        "identically",
    )
    fuzz.add_argument(
        "--population",
        type=int,
        default=None,
        help="genomes per generation (default 16; 4 with --smoke)",
    )
    fuzz.add_argument(
        "--generations",
        type=int,
        default=None,
        help="generations to run (default 8; 2 with --smoke)",
    )
    fuzz.add_argument(
        "--elite",
        type=int,
        default=None,
        help="top genomes copied unchanged each generation "
        "(default 2; 1 with --smoke)",
    )
    fuzz.add_argument(
        "--tournament",
        type=int,
        default=None,
        help="tournament selection size (default 3; 2 with --smoke)",
    )
    fuzz.add_argument(
        "--mutation-scale",
        type=float,
        default=0.15,
        help="Gaussian mutation sigma as a fraction of each gene's "
        "range (default 0.15)",
    )
    fuzz.add_argument(
        "--seed",
        type=int,
        default=0,
        help="root seed of the whole search trajectory (default 0)",
    )
    fuzz.add_argument(
        "--fitness",
        choices=["latency", "mrf_margin", "disagreement"],
        default="latency",
        help="fitness function: peak estimated FPR demand (default), "
        "demand margin above the provisioned rate, or peak "
        "backend-vs-scalar disagreement (parity bug hunt)",
    )
    fuzz.add_argument(
        "--seeds",
        type=int,
        default=1,
        help="scenario jitter seeds 0..N-1 per genome (default 1)",
    )
    fuzz.add_argument(
        "--fprs",
        default="30",
        help="comma-separated fixed FPR settings per genome (default 30)",
    )
    fuzz.add_argument(
        "--stride",
        type=float,
        default=None,
        help="evaluation stride in seconds (default 0.05; 0.5 with "
        "--smoke)",
    )
    fuzz.add_argument(
        "--backend",
        choices=list(BACKENDS),
        default="batched",
        help="latency backend generations evaluate under",
    )
    fuzz.add_argument(
        "--workers", type=int, default=1, help="parallel worker processes"
    )
    fuzz.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="simulate-once trace store: elites and re-discovered "
        "genomes re-evaluate from recorded traces (see campaign "
        "--store)",
    )
    fuzz.add_argument(
        "--archive-size",
        type=int,
        default=5,
        help="worst-case genomes kept in archive.json (default 5)",
    )
    fuzz.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized preset: 4 genomes x 2 generations at stride "
        "0.5 (explicit flags still win)",
    )
    fuzz.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-generation progress lines",
    )

    replay = sub.add_parser(
        "replay",
        help="re-estimate recorded traces from a store (no simulation)",
    )
    replay.add_argument(
        "--store",
        required=True,
        metavar="DIR",
        help="trace store to replay from (see campaign --store)",
    )
    replay.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="stream rows to a JSONL file (with a PATH.heartbeat "
        "sidecar refreshed as rows finish)",
    )
    replay.add_argument(
        "--from-campaign",
        default=None,
        metavar="FILE",
        help="adopt the grid, variants and settings of a recorded "
        "campaign JSONL: the replay reproduces its estimation rows "
        "from the store alone",
    )
    replay.add_argument(
        "--online",
        action="append",
        default=None,
        metavar="PREDICTOR[:AGGREGATOR]",
        help="add an online-estimator variant: cv, ca or maneuver, "
        "optionally with max, mean, percentile or percentile:Q "
        "(repeatable; default without --online/--from-campaign is one "
        "offline default-parameter variant)",
    )
    replay.add_argument(
        "--workers", type=int, default=1, help="parallel worker processes"
    )
    replay.add_argument(
        "--stride", type=float, default=0.05, help="estimation cadence (s)"
    )
    replay.add_argument(
        "--backend",
        choices=list(BACKENDS),
        default="batched",
        help="evaluation backend (identical results)",
    )
    replay.add_argument(
        "--miss-rate", type=float, default=0.0,
        help="replay-time detection miss probability (default 0)",
    )
    replay.add_argument(
        "--position-noise", type=float, default=0.0,
        help="replay-time position jitter sigma in metres (default 0)",
    )
    replay.add_argument(
        "--noise-seed", type=int, default=0,
        help="root seed of the counter-based noise draws (default 0)",
    )
    replay.add_argument(
        "--shard",
        default=None,
        metavar="I/N",
        help="replay only cell-stripe I of N (each shard heartbeats "
        "and resumes independently; merge parts with campaign-merge)",
    )
    replay.add_argument(
        "--resume",
        action="store_true",
        help="reuse the rows already present in --out and execute "
        "only the remainder (the shard comes from the file; a "
        "different --shard is refused)",
    )
    replay.add_argument(
        "--quiet", action="store_true", help="suppress per-row progress lines"
    )

    merge = sub.add_parser(
        "campaign-merge",
        help="merge campaign or replay shard JSONL parts into one result",
    )
    merge.add_argument(
        "parts", nargs="+", metavar="PART", help="shard JSONL files"
    )
    merge.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the merged result as JSONL",
    )

    lint = sub.add_parser(
        "lint",
        help="determinism & contract linter (rules DET001-PAR006)",
        description=(
            "AST-based static analysis enforcing the repo's "
            "determinism and durability contracts; see docs/TESTING.md "
            "'Determinism contract — lint rules'"
        ),
    )
    from repro.lint.cli import add_lint_arguments

    add_lint_arguments(lint)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "scenarios": _cmd_scenarios,
        "run": _cmd_run,
        "mrf": _cmd_mrf,
        "sweep": _cmd_sweep,
        "campaign": _cmd_campaign,
        "campaign-merge": _cmd_campaign_merge,
        "fuzz": _cmd_fuzz,
        "replay": _cmd_replay,
        "lint": _cmd_lint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
