"""Ablation — Equation 4 aggregation functions on the online estimator.

Max / mean / percentile aggregation over the manoeuvre predictor's
hypotheses, evaluated on one Cut-in tick: the paper's qualitative
ordering (max most pessimistic, mean most permissive, percentile
between) must emerge.
"""

import numpy as np

from benchmarks.conftest import emit
from repro.analysis.report import format_table
from repro.core.aggregation import (
    MaxAggregator,
    MeanAggregator,
    PercentileAggregator,
)
from repro.core.online import OnlineEstimator
from repro.core.parameters import ZhuyiParams
from repro.prediction.maneuver import ManeuverPredictor
from repro.scenarios.catalog import build_scenario


def _run():
    scenario = build_scenario("cut_in", seed=0)
    trace = scenario.run(fpr=30.0)
    params = ZhuyiParams()
    predictor = ManeuverPredictor(road=scenario.road, target_lane=1)

    # Reconstruct a mid-event world-model snapshot from the trace's
    # ground truth (ideal perception) at the recorded instant nearest
    # the cut-in moment. The simulator records every actor at every
    # step.
    from repro.perception.world_model import PerceivedActor, WorldModel

    times = trace.columns["times"]
    now = float(times[np.argmin(np.abs(times - trace.duration * 0.45))])
    world = WorldModel()
    for actor_id in trace.actor_ids():
        state = trace.actor_trajectory(actor_id).state_at(now)
        world.upsert(
            PerceivedActor(
                actor_id=actor_id,
                position=state.position,
                velocity=state.velocity(),
                heading=state.heading,
                speed=state.speed,
                accel=state.accel,
                timestamp=now,
            )
        )

    rows = []
    for label, aggregator in (
        ("max (most pessimistic)", MaxAggregator()),
        ("percentile-99", PercentileAggregator(99.0)),
        ("percentile-90", PercentileAggregator(90.0)),
        ("mean (probability-weighted)", MeanAggregator()),
    ):
        estimator = OnlineEstimator(
            params=params,
            predictor=predictor,
            road=scenario.road,
            aggregator=aggregator,
        )
        tick = estimator.estimate(
            now=now,
            ego_state=trace.ego_trajectory().state_at(now),
            ego_spec=trace.ego_spec,
            world_model=world,
            l0=1.0 / 30.0,
        )
        rows.append((label, tick.latency("front_120"), tick.fpr("front_120")))
    return rows


def test_ablation_aggregation(benchmark, artifact_dir):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    table = format_table(
        ["Aggregator", "front latency [s]", "front FPR"],
        [(label, f"{lat:.3f}", f"{fpr:.1f}") for label, lat, fpr in rows],
    )
    emit(artifact_dir, "ablation_aggregation", table)

    by_label = {label: lat for label, lat, _ in rows}
    # Pessimism ordering: max <= p99 <= p90 <= mean in latency space.
    assert by_label["max (most pessimistic)"] <= by_label["percentile-99"] + 1e-9
    assert by_label["percentile-99"] <= by_label["percentile-90"] + 1e-9
    assert by_label["percentile-90"] <= (
        by_label["mean (probability-weighted)"] + 1e-9
    )
