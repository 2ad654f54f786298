"""Section 4.2 — the Zhuyi model's own compute demand.

The analytic cap is |A| x |T| x M x L x C = 60 kops for two actors with
one future each; this bench also counts the *actual* constraint
evaluations of the paper-strategy search. pytest-benchmark times a full
two-actor estimation tick in this Python implementation (20 rounds);
the artifact holds only the counts, so it is identical run to run.
"""

from benchmarks.conftest import emit
from repro.analysis.report import format_table
from repro.core.compute import ComputeDemandModel
from repro.core.ego_profile import EgoMotion
from repro.core.latency import LatencySearch, SearchStrategy
from repro.core.parameters import ZhuyiParams
from repro.core.threat import FixedGapThreat


def _two_actor_tick(search: LatencySearch, params: ZhuyiParams):
    ego = EgoMotion.from_state(26.8, 0.0, params)
    threats = [
        FixedGapThreat(gap=45.0, actor_speed=17.9),
        FixedGapThreat(gap=80.0, actor_speed=22.0),
    ]
    return [search.tolerable_latency(ego, threat, 1.0 / 30.0)
            for threat in threats]


def test_compute_demand(benchmark, artifact_dir):
    params = ZhuyiParams()
    model = ComputeDemandModel()
    paper_search = LatencySearch(params=params, strategy=SearchStrategy.PAPER)

    results = benchmark.pedantic(
        _two_actor_tick, args=(paper_search, params), rounds=20, iterations=1
    )

    analytic_ops = model.ops(num_actors=2, num_trajectories=1, params=params)
    measured_iterations = sum(result.iterations for result in results)
    measured_ops = model.ops_from_iterations(measured_iterations)

    rows = [
        ("analytic cap |A|*|T|*M*L*C", f"{analytic_ops:,} ops"),
        ("paper claim", "60,000 ops for 2 actors, 1 future"),
        ("measured iterations (early exit)", f"{measured_iterations}"),
        ("measured ops", f"{measured_ops:,}"),
        ("modelled time @10 GOPS", f"{model.execution_time(analytic_ops, 10.0)*1e3:.3f} ms"),
        ("paper claim", "< 2 ms on 10+ GOPS"),
    ]
    emit(
        artifact_dir,
        "compute_demand",
        format_table(["Quantity", "Value"], rows),
    )

    assert analytic_ops == 60_000
    assert measured_ops <= analytic_ops
    assert model.execution_time(analytic_ops, 10.0) < 2e-3
