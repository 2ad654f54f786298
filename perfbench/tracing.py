"""Outside-in per-layer spans: wrap each layer's public callables, then restore.

The program itself records no spans. For a traced pass the benchmark
replaces the callables listed in :data:`PROBES` with thin wrappers that
keep a span stack in memory, and puts every original back on exit. A
layer's *self time* is its spans' duration minus the part covered by
nested spans, so the self times of all spans add up exactly to the time
spent inside top-level spans; the rest of the pass is ``batch.overhead_s``.

Functions are patched in their defining module and in every loaded
``repro`` module that imported them by name, so ``from x import f``
callers are traced too. Methods and properties are patched on their
class.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Probe:
    """One traced callable.

    Attributes:
        target: ``"module:attr"`` or ``"module:Class.attr"``.
        span: self-time metric name (``*_s``), or ``None`` to only count.
        count: count metric name (``*_n``), or ``None``.
        tally: amount to add to ``count`` from the call's result; omitted,
            each call counts one.
    """

    target: str
    span: str | None = None
    count: str | None = None
    tally: Callable[[object], int] | None = None


def _ticks(series) -> int:
    return len(series.ticks)


def _block_ticks(block) -> int:
    return sum(len(series.ticks) for row in block for series in row)


PROBES: tuple[Probe, ...] = (
    # simulator stages (closed loop)
    Probe("repro.sim.simulator:Simulator.run", "sim.run_s", "sim.steps_n",
          lambda trace: len(trace.steps)),
    Probe("repro.sim.collision:CollisionChecker.check", "sim.collision_s"),
    Probe("repro.perception.pipeline:PerceptionSystem.step", "perception.step_s"),
    Probe("repro.perception.detection:DetectionModel.detect",
          "perception.detect_s", "perception.detect_n"),
    Probe("repro.perception.detection:occlusion_mask", "perception.occlusion_s"),
    Probe("repro.core.rng:counter_normal",
          "rng.counter_normal_s", "rng.counter_normal_n"),
    Probe("repro.core.rng:stable_key", count="rng.stable_key_n"),
    Probe("repro.planning.planner:Planner.plan", "planning.plan_s"),
    Probe("repro.actors.vehicle:Actor.step", "actors.step_s"),
    Probe("repro.actors.vehicle:Actor.state", count="actors.state_n"),
    Probe("repro.dynamics.bicycle:KinematicBicycle.step", "dynamics.bicycle_s"),
    Probe("repro.scenarios.catalog:build_scenario", "scenarios.build_s"),
    # trace store
    Probe("repro.store.store:TraceStore.put", "store.put_s"),
    Probe("repro.store.store:TraceStore.get", "store.get_s", "store.hit_n",
          lambda trace: int(trace is not None)),
    Probe("repro.store.store:TraceStore.get", count="store.miss_n",
          tally=lambda trace: int(trace is None)),
    # estimator
    Probe("repro.core.evaluator:presample_trace", "evaluator.presample_s"),
    Probe("repro.core.evaluator:OfflineEvaluator.evaluate",
          "evaluator.evaluate_s", "evaluator.ticks_n", _ticks),
    Probe("repro.core.evaluator:evaluate_trace_block",
          "evaluator.block_s", "evaluator.ticks_n", _block_ticks),
    Probe("repro.core.threat:ThreatAssessor.could_collide_trace", "threat.gate_s"),
    Probe("repro.core.threat:ThreatAssessor.could_collide_futures", "threat.gate_s"),
    Probe("repro.core.threat:ThreatAssessor.sample_threats_trace", "threat.sample_s"),
    Probe("repro.core.threat:ThreatAssessor.sample_threat_futures", "threat.sample_s"),
    Probe("repro.core.engine:LatencyEngine.trace_grid", "engine.grid_s"),
    Probe("repro.core.engine:LatencyEngine.solve_rows", "engine.solve_s",
          "engine.rows_n", len),
    Probe("repro.perception.sensor:CameraRig.visible_actors_trace", "visibility.trace_s"),
    Probe("repro.perception.sensor:CameraRig.visible_actors_traces", "visibility.trace_s"),
    Probe("repro.perception.sensor:CameraRig.visibility_trace", "visibility.trace_s"),
    Probe("repro.perception.sensor:CameraRig.visibility_traces", "visibility.trace_s"),
    Probe("repro.core.latency:LatencySearch.tolerable_latency", count="latency.scalar_n"),
    # online replay
    Probe("repro.prediction.constant_velocity:ConstantVelocityPredictor.predict_trace",
          "prediction.trace_s"),
    Probe("repro.prediction.constant_accel:ConstantAccelerationPredictor.predict_trace",
          "prediction.trace_s"),
    Probe("repro.prediction.maneuver:ManeuverPredictor.predict_trace",
          "prediction.trace_s"),
    Probe("repro.prediction.base:predict_trace_via_loop", "prediction.trace_s",
          "prediction.loop_fallback_n"),
    Probe("repro.core.online:OnlineEstimator.replay", "online.replay_s"),
    Probe("repro.core.aggregation:MaxAggregator.aggregate_rows", "aggregation.rows_s"),
    Probe("repro.core.aggregation:MeanAggregator.aggregate_rows", "aggregation.rows_s"),
    Probe("repro.core.aggregation:PercentileAggregator.aggregate_rows",
          "aggregation.rows_s"),
    # campaign and replay execution
    Probe("repro.batch.runner:execute_cell", "batch.cell_s"),
    Probe("repro.batch.runner:execute_supercell", "batch.cell_s"),
    Probe("repro.store.replay:execute_replay_cell", "batch.cell_s"),
    Probe("repro.batch.results:CampaignWriter.write", "batch.write_s"),
    Probe("repro.batch.results:CampaignWriter.write_row", "batch.write_s"),
)

#: Metrics computed from the pass rather than from one callable.
OVERHEAD_S = "batch.overhead_s"
OVERHEAD_FRAC = "trace.overhead_frac"


def _unique(names) -> tuple[str, ...]:
    return tuple(dict.fromkeys(name for name in names if name is not None))


SPANS = _unique(probe.span for probe in PROBES)
COUNTS = _unique(probe.count for probe in PROBES)

#: Every per-layer metric a traced run reports, in report order.
PER_LAYER = SPANS + (OVERHEAD_S,) + COUNTS + (OVERHEAD_FRAC,)


def unit_of(name: str) -> str:
    """The unit a per-layer metric is reported in."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_n"):
        return "count"
    return "ratio"


def _repro_modules() -> list[object]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _resolve(target: str) -> tuple[object, str]:
    """``(owner, attribute)`` of a probe target."""
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attribute


class Tracer:
    """Installs :data:`PROBES` for the duration of a ``with`` block.

    Attributes:
        self_s: accumulated self time per span metric.
        counts: accumulated count per count metric.
        top_s: summed duration of top-level spans (spans entered while no
            other span was open).
    """

    def __init__(self):
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.top_s = 0.0
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for probe in PROBES:
                self._install(probe)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def restore(self) -> None:
        """Put every patched attribute back, newest patch first.

        A module first imported while the probes were installed may have
        bound a wrapper by name; those aliases are reset too.
        """
        # wrapper id -> (wrapper, original); holding the wrapper keeps its
        # id from being reused while the aliases are scanned.
        originals: dict[int, tuple[object, object]] = {}
        while self._patches:
            owner, attribute, original = self._patches.pop()
            wrapper = getattr(owner, attribute)
            originals[id(wrapper)] = (wrapper, original)
            setattr(owner, attribute, original)
        for loaded in _repro_modules():
            for alias, value in list(vars(loaded).items()):
                restored = value
                while id(restored) in originals and originals[id(restored)][0] is restored:
                    restored = originals[id(restored)][1]
                if restored is not value:
                    setattr(loaded, alias, restored)

    def _install(self, probe: Probe) -> None:
        owner, attribute = _resolve(probe.target)
        if isinstance(owner, type):
            raw = owner.__dict__[attribute]
            if isinstance(raw, property):
                replacement = property(self._wrap(raw.fget, probe), doc=raw.__doc__)
            else:
                replacement = self._wrap(raw, probe)
            self._patch(owner, attribute, raw, replacement)
            return
        raw = getattr(owner, attribute)
        replacement = self._wrap(raw, probe)
        # Patch the defining module and every module that imported the
        # function by name.
        for loaded in _repro_modules():
            for alias, value in list(vars(loaded).items()):
                if value is raw:
                    self._patch(loaded, alias, raw, replacement)

    def _patch(self, owner: object, attribute: str, original, replacement) -> None:
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def _wrap(self, fn: Callable, probe: Probe) -> Callable:
        counts = self.counts
        count, tally = probe.count, probe.tally
        if probe.span is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if tally is None:
                    counts[count] += 1
                    return fn(*args, **kwargs)
                result = fn(*args, **kwargs)
                counts[count] += tally(result)
                return result

            return counted

        span = probe.span
        self_s, stack, clock = self.self_s, self._stack, time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[span] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.top_s += elapsed
            if count is not None:
                counts[count] += 1 if tally is None else tally(result)
            return result

        return timed
