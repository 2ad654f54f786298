"""Zhuyi pipeline benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table1_cold --seed 0 --seconds 5 --trace 0

Set-up (imports, scenario builds and, for the warm workloads, filling
the trace store) is timed separately from the timed phase, which sweeps
the workload's grid in whole passes until ``--seconds`` have elapsed.
Times are reported in reference seconds (see ``speed.py``), which
take out the shared machine's changes of speed; the context line also
gives the raw wall times.
``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the
same number of untraced passes, then traced passes with every layer's
public callables wrapped (see ``tracing.py``), and reports per-layer
self times and counts per pass.

Before the result, one ``context`` JSON line gives the run's
provenance, output digest and per-cell sample counts. The last line is
``{"correct", "attempted", "failed", "metrics"}``. A digest that differs
from the one pinned in ``pins.json`` for this workload and seed, or
between passes, fails every row of the run. ``--record-pin`` stores
the run's digest as the pin instead.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402 - the clock starts before any import
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
PINS = Path(__file__).resolve().parent / "pins.json"

#: Build rounds whose median enters ``setup_s``.
SETUP_REPEATS = 5

#: End-to-end metrics and their units, in report order.
END_TO_END = {
    "setup_s": "s",
    "cells_per_s": "cells/s",
    "rows_per_s": "rows/s",
    "cell_s_p50": "s",
    "peak_rss_mb": "MB",
    "store_mb": "MB",
    "ok_frac": "ratio",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-pin",
        action="store_true",
        help="store this run's output digest in pins.json",
    )
    return parser.parse_args(argv)


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    """sha256 over the program's sources (path and content, sorted)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(root: Path) -> dict:
    import numpy

    from repro.store.fingerprint import code_fingerprint

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "code_fingerprint": code_fingerprint(),
        "source_digest": source_digest(root),
        "git_commit": git_commit(root),
        "workers": 1,
    }


def tail_percentile(values: list[float]) -> dict | None:
    """The highest percentile with at least ten samples above it."""
    ordered = sorted(values)
    rank = len(ordered) - 10
    if rank < 1:
        return None
    return {"p": round(100.0 * rank / len(ordered), 1), "value": ordered[rank - 1]}


def load_pins() -> dict:
    return json.loads(PINS.read_text()) if PINS.is_file() else {}


def digest_problems(name: str, seed: int, digests: list[str], pins: str) -> list[str]:
    """Disagreements between the passes' digests and the pinned one.

    ``pins`` is ``"check"`` (compare with ``pins.json``), ``"record"``
    (store this run's digest there) or ``"off"``.
    """
    problems = []
    if len(set(digests)) > 1:
        problems.append(f"{name}: passes produced different outputs")
    table = load_pins()
    if pins == "record":
        table.setdefault(name, {})[str(seed)] = digests[0]
        PINS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    elif pins == "check":
        pinned = table.get(name, {}).get(str(seed))
        if pinned is not None and pinned != digests[0]:
            problems.append(
                f"{name}: output digest {digests[0][:16]} != pinned {pinned[:16]}"
            )
    return problems


def timed_passes(workload, seconds: float, tag: str) -> list:
    """Whole passes until their summed wall time reaches ``seconds``."""
    passes = []
    while not passes or sum(p.wall_s for p in passes) < seconds:
        passes.append(workload.run_pass(f"{tag}{len(passes)}"))
    return passes


def run_benchmark(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    grid=None,
    pins: str = "check",
) -> tuple[dict, dict]:
    """Run one workload; returns ``(context, result)``.

    ``grid`` overrides the workload sizes (the pins then do not apply).
    """
    from perfbench import speed

    if grid is not None:
        pins = "off"
    traced = []
    tracer = None
    with speed.Speedometer() as speedometer:
        from perfbench import tracing, workloads

        setup_s = speedometer.seconds(_STARTED, time.perf_counter())
        workload = workloads.Workload(
            name, seed, workdir, grid or workloads.FULL, speedometer.seconds
        )
        setup_s += workload.setup(SETUP_REPEATS)
        passes = timed_passes(workload, seconds, "pass")
        if trace:
            tracer = tracing.Tracer()
            with tracer:
                traced = timed_passes(workload, seconds, "traced")

    every = passes + traced
    digests = [p.digest for p in every]
    problems = [problem for p in every for problem in p.problems]
    problems += digest_problems(name, seed, digests, pins)
    attempted = sum(workload.rows_per_pass for _ in every)
    failed = attempted if problems else sum(p.failed_rows for p in every)
    errors = [row["error"] for p in every for row in p.rows if row.get("error")]
    if errors:
        problems.append(f"{name}: {len(errors)} failed rows, first: {errors[0]}")

    cell_s = [value for p in passes for value in p.cell_s]
    wall = sum(p.wall_s for p in passes)
    ref = sum(p.ref_s for p in passes)
    if trace:
        traced_wall = sum(p.wall_s for p in traced)
        per_pass = 1.0 / len(traced)
        values = {span: tracer.self_s[span] * per_pass for span in tracing.SPANS}
        values[tracing.OVERHEAD_S] = (traced_wall - tracer.top_s) * per_pass
        values.update({count: tracer.counts[count] * per_pass for count in tracing.COUNTS})
        traced_ref = sum(p.ref_s for p in traced)
        values[tracing.OVERHEAD_FRAC] = (traced_ref / len(traced)) / (ref / len(passes)) - 1.0
        metrics = {
            metric: {"value": values[metric], "unit": tracing.unit_of(metric)}
            for metric in tracing.PER_LAYER
        }
    else:
        values = {
            "setup_s": setup_s,
            "cells_per_s": len(workload.cells) * len(passes) / ref,
            "rows_per_s": workload.rows_per_pass * len(passes) / ref,
            "cell_s_p50": statistics.median(cell_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "store_mb": passes[0].store_bytes / 1e6,
            "ok_frac": 1.0 - failed / attempted,
        }
        metrics = {
            metric: {"value": values[metric], "unit": unit}
            for metric, unit in END_TO_END.items()
        }

    context = {
        "kind": "context",
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "passes": len(passes),
        "traced_passes": len(traced),
        "wall_s": wall,
        "ref_s": ref,
        "raw_cells_per_s": len(workload.cells) * len(passes) / wall,
        "speed_samples": len(speedometer.samples),
        "traced_wall_s": sum(p.wall_s for p in traced),
        "digest": digests[0],
        "pinned": pins != "off" and str(seed) in load_pins().get(name, {}),
        "cell_s": {
            "n": len(cell_s),
            "p50": statistics.median(cell_s),
            "tail": tail_percentile(cell_s),
        },
        "problems": problems,
        "provenance": provenance(ROOT),
    }
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return context, result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program sources at {ROOT / 'src' / 'repro'}; "
            "run from a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    scratch = ROOT / ".bench_build" / "perfbench"
    scratch.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        context, result = run_benchmark(
            args.workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            workdir,
            pins="record" if args.record_pin else "check",
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in context["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(context))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
