"""The benchmark's own checks, on grids small enough for the unit suite."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import run, tracing, workloads  # noqa: E402

TINY = workloads.Grid(
    scenarios=("vehicle_following",),
    cold_fprs=(30.0, 5.0),
    stride=0.5,
    replay_period=0.5,
)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_each_workload_runs_at_a_tiny_size(name, tmp_path):
    context, result = run.run_benchmark(name, 3, 0.0, False, tmp_path, grid=TINY)
    assert result["correct"], context["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == list(run.END_TO_END)
    for metric in result["metrics"].values():
        assert metric["value"] > 0.0


@pytest.mark.parametrize("name", ["table1_cold", "replay_online"])
def test_self_times_and_overhead_add_up_to_the_traced_wall(name, tmp_path):
    context, result = run.run_benchmark(name, 3, 0.0, True, tmp_path, grid=TINY)
    assert result["correct"], context["problems"]  # traced digest == untraced
    metrics = result["metrics"]
    assert list(metrics) == list(tracing.PER_LAYER)
    spans = sum(metrics[span]["value"] for span in tracing.SPANS)
    assert metrics[tracing.OVERHEAD_S]["value"] >= 0.0
    assert spans + metrics[tracing.OVERHEAD_S]["value"] == pytest.approx(
        context["traced_wall_s"], rel=1e-9, abs=1e-9
    )
    assert metrics["batch.cell_s"]["value"] > 0.0
    assert metrics["latency.scalar_n"]["value"] == 0


def _bindings() -> dict[tuple[int, str], object]:
    """Every probed attribute, including modules' by-name imports."""
    found = {}
    for probe in tracing.PROBES:
        owner, attribute = tracing._resolve(probe.target)
        if isinstance(owner, type):
            found[(id(owner), attribute)] = owner.__dict__[attribute]
            continue
        raw = getattr(owner, attribute)
        for module in tracing._repro_modules():
            for alias, value in vars(module).items():
                if value is raw:
                    found[(id(module), alias)] = raw
    return found


def test_traced_run_restores_every_wrapped_callable(tmp_path):
    workload = workloads.Workload("table1_cold", 3, tmp_path, TINY)
    before = _bindings()
    with tracing.Tracer() as tracer:
        during = _bindings()
        workload.run_pass("traced")
    assert all(during[key] is not value for key, value in before.items())
    assert tracer.counts["sim.steps_n"] > 0
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())
    wrappers = {id(value): value for value in during.values()}
    leftover = [
        (module.__name__, alias)
        for module in tracing._repro_modules()
        for alias, value in vars(module).items()
        if wrappers.get(id(value)) is value
    ]
    assert leftover == []


def test_metric_names_are_plain_and_match_benchmark_json():
    pattern = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [metric["name"] for metric in spec["end_to_end"]]
    per_layer = [metric["name"] for metric in spec["per_layer"]]
    assert end_to_end == list(run.END_TO_END)
    assert per_layer == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for name in end_to_end + per_layer:
        assert pattern.match(name), name
