"""Ablation — Eq 3 accelerated search vs the dense reference scan.

The paper proposes the M-bounded adaptive stepping as a performance
optimization over "increment t_n by one timestep and re-check". This
bench quantifies the speedup and the conservatism gap on a grid of
situations, and sweeps K (the confirmation-frame count).
"""

from benchmarks.conftest import emit
from repro.analysis.report import format_table
from repro.core.ego_profile import EgoMotion
from repro.core.latency import LatencySearch, SearchStrategy
from repro.core.parameters import ZhuyiParams
from repro.core.threat import FixedGapThreat

PARAMS = ZhuyiParams()

CASES = [
    (speed, gap, actor_speed)
    for speed in (5.0, 15.0, 25.0, 35.0)
    for gap in (15.0, 40.0, 90.0, 200.0)
    for actor_speed in (0.0, 10.0, 20.0)
]


def _solve_all(search: LatencySearch):
    results = []
    for speed, gap, actor_speed in CASES:
        ego = EgoMotion.from_state(speed, 0.0, PARAMS)
        results.append(
            search.tolerable_latency(
                ego, FixedGapThreat(gap, actor_speed), 1.0 / 30.0
            )
        )
    return results


def test_ablation_search_strategy(benchmark, artifact_dir):
    paper = LatencySearch(params=PARAMS, strategy=SearchStrategy.PAPER)
    exact = LatencySearch(params=PARAMS, strategy=SearchStrategy.EXACT)

    paper_results = benchmark.pedantic(
        _solve_all, args=(paper,), rounds=10, iterations=1
    )
    exact_results = _solve_all(exact)

    paper_iterations = sum(result.iterations for result in paper_results)
    exact_iterations = sum(result.iterations for result in exact_results)
    agree = sum(
        1
        for a, b in zip(paper_results, exact_results)
        if abs(a.latency_or_zero() - b.latency_or_zero()) < 1e-9
    )
    more_conservative = sum(
        1
        for a, b in zip(paper_results, exact_results)
        if a.latency_or_zero() < b.latency_or_zero() - 1e-9
    )
    rows = [
        ("situations", len(CASES)),
        ("paper-search constraint evaluations", paper_iterations),
        ("exact-scan constraint evaluations", exact_iterations),
        ("evaluation ratio (exact/paper)",
         f"{exact_iterations / max(paper_iterations, 1):.1f}x"),
        ("identical latency verdicts", agree),
        ("paper search more conservative", more_conservative),
        ("paper search less conservative", 0),
    ]
    emit(
        artifact_dir,
        "ablation_search_strategy",
        format_table(["Quantity", "Value"], rows),
    )
    # The accelerated search must never be less safe than the reference.
    for a, b in zip(paper_results, exact_results):
        assert a.latency_or_zero() <= b.latency_or_zero() + 1e-9


def test_ablation_k_sweep(benchmark, artifact_dir):
    def sweep():
        rows = []
        for k in (0, 1, 3, 5, 8):
            params = ZhuyiParams(k=k)
            search = LatencySearch(params=params)
            ego = EgoMotion.from_state(26.8, 0.0, params)
            threat = FixedGapThreat(gap=60.0, actor_speed=0.0)
            result = search.tolerable_latency(ego, threat, 1.0 / 30.0)
            fpr = (
                float("nan")
                if result.latency is None
                else 1.0 / result.latency
            )
            rows.append((k, result.latency_or_zero(), fpr))
        return rows

    rows = benchmark.pedantic(sweep, rounds=5, iterations=1)
    table = format_table(
        ["K", "tolerable latency [s]", "required FPR"],
        [(k, f"{lat:.3f}", f"{fpr:.1f}") for k, lat, fpr in rows],
    )
    emit(artifact_dir, "ablation_k_sweep", table)
    # More confirmation frames -> tighter latency -> higher FPR demand.
    latencies = [lat for _, lat, _ in rows]
    assert latencies == sorted(latencies, reverse=True)
