"""Table 1 — scenario validation: MRF, Zhuyi estimates, peak fraction.

One campaign over the nine catalog scenarios, aggregated by
``campaign_table1``. The quick default runs two seeds over a reduced FPR
grid (a few minutes); set ``REPRO_TABLE1_FULL=1`` for the paper's
ten-seed, full-grid protocol.
"""

from benchmarks.conftest import emit
from repro.batch import (
    Campaign,
    CampaignRunner,
    campaign_table1,
    render_campaign_table,
)
from repro.scenarios.catalog import SCENARIO_NAMES
from repro.system.mrf import DEFAULT_FPR_GRID


def _campaign(full: bool) -> Campaign:
    if full:
        return Campaign(
            scenarios=SCENARIO_NAMES,
            seeds=tuple(range(10)),
            fprs=DEFAULT_FPR_GRID,
        )
    return Campaign(
        scenarios=SCENARIO_NAMES,
        seeds=(0, 1),
        fprs=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 15.0, 30.0),
    )


def test_table1_validation(benchmark, artifact_dir, full_table1):
    campaign = _campaign(full_table1)
    result = benchmark.pedantic(
        CampaignRunner().run, args=(campaign,), rounds=1, iterations=1
    )
    assert not result.failures()
    rows = campaign_table1(result)
    report = render_campaign_table(result)

    summary = ["", "Validation checks:"]
    worst_fraction = max(row.fraction for row in rows)
    summary.append(
        f"  peak fraction of a 3x30-FPR provision: {worst_fraction:.2f} "
        "(paper headline: 0.36)"
    )
    for row in rows:
        if row.mrf.mrf is None or not row.mrf.collision_fprs:
            continue
        estimates = [v for v in row.mean_estimates.values() if v is not None]
        floor = min(estimates) if estimates else float("nan")
        summary.append(
            f"  {row.scenario}: MRF {row.mrf.label} (paper {row.paper_mrf}), "
            f"lowest estimate {floor:.1f} -> conservative: "
            f"{floor >= row.mrf.mrf}"
        )
    emit(artifact_dir, "table1_validation", report + "\n".join(summary))

    # Safety: wherever a real MRF exists, every estimate stays above it.
    for row in rows:
        if row.mrf.mrf is None or not row.mrf.collision_fprs:
            continue
        for estimate in row.mean_estimates.values():
            if estimate is not None:
                assert estimate >= row.mrf.mrf - 1e-6, row.scenario
    assert worst_fraction <= 0.37
