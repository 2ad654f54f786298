"""Run the benchmark over many seeds and summarise each metric's spread.

Usage (from the repository root)::

    python3 perfbench/sweep.py --workloads table1_cold,replay_online --seeds 0-9

Each (workload, seed) runs ``run.py`` in its own process, one after
another. For every metric the summary gives the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread,
``(q3 - q1) / median``, next to the bound ``BENCHMARK.json`` allows.
``--trajectory`` appends the summary, stamped with the runs'
provenance, to ``trajectory.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    """``"0-9"`` or ``"1,4,7"``."""
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "n": len(values),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workloads", default=",".join(w["name"] for w in spec["workloads"])
    )
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trajectory", action="store_true")
    parser.add_argument(
        "--record-pin", action="store_true", help="pass --record-pin to every run"
    )
    args = parser.parse_args(argv)

    bounds = {metric["name"]: metric.get("bound") for metric in spec["end_to_end"]}
    summary: dict[str, dict] = {}
    stamp = None
    for workload in args.workloads.split(","):
        metrics: dict[str, list[float]] = {}
        for seed in seed_list(args.seeds):
            started = time.perf_counter()
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)]
                + (["--record-pin"] if args.record_pin else []),
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            *_, context_line, result_line = done.stdout.strip().splitlines()
            context, result = json.loads(context_line), json.loads(result_line)
            stamp = context["provenance"]
            if not result["correct"]:
                print(f"{workload} seed {seed}: INCORRECT {context['problems']}")
            for name, metric in result["metrics"].items():
                metrics.setdefault(name, []).append(metric["value"])
            print(
                f"{workload} seed {seed}: {time.perf_counter() - started:.1f} s "
                + " ".join(f"{k}={v[-1]:.4g}" for k, v in metrics.items()),
                flush=True,
            )
        summary[workload] = {name: summarise(v) for name, v in metrics.items()}
        for name, stats in summary[workload].items():
            print(
                f"  {workload:14s} {name:24s} median {stats['median']:.4g} "
                f"spread {stats['spread']} bound {bounds.get(name)}"
            )
    if args.trajectory:
        path = HERE / "trajectory.json"
        entries = json.loads(path.read_text()) if path.is_file() else []
        entries.append(
            {
                "provenance": stamp,
                "seeds": args.seeds,
                "seconds": args.seconds,
                "trace": args.trace,
                "workloads": summary,
            }
        )
        path.write_text(json.dumps(entries, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
