"""Pre-deployment safety audit (Section 3.1 use case).

For one scenario: run the closed loop at every fixed camera rate of the
validation grid as one campaign, find the minimum required FPR (the
lowest rate above every colliding one), read the Zhuyi estimate of every
safe run, and verify the paper's validation property — the estimated
FPR stays above the MRF.

Run:  python examples/pre_deployment_audit.py [scenario] [seed]
"""

import sys

from repro.analysis.report import format_table
from repro.batch import Campaign, CampaignRunner, campaign_table1


def main(scenario_name: str = "cut_out", seed: int = 0) -> None:
    grid = (1.0, 2.0, 3.0, 4.0, 6.0, 10.0, 30.0)
    campaign = Campaign(scenarios=(scenario_name,), seeds=(seed,), fprs=grid)

    print(f"Auditing {scenario_name!r} (seed {seed}) across {grid} FPR ...")
    result = CampaignRunner().run(campaign)
    (table_row,) = campaign_table1(result)
    rows = []
    safe_estimates = []
    for run in result.summaries:
        if not run.ok:
            rows.append((f"{run.fpr:g}", "FAILED", "N/A"))
        elif run.collided:
            rows.append((f"{run.fpr:g}", "COLLISION", "N/A"))
        else:
            rows.append((f"{run.fpr:g}", "safe", f"{run.max_fpr:.1f}"))
            safe_estimates.append(run.max_fpr)

    mrf = table_row.mrf
    print()
    print(format_table(["run FPR", "outcome", "max Zhuyi estimate"], rows))
    print()
    print(f"Minimum required FPR: {mrf.label}")
    print(f"Paper's MRF for this scenario: {table_row.paper_mrf}")
    if mrf.mrf is not None and mrf.collision_fprs and safe_estimates:
        conservative = min(safe_estimates) >= mrf.mrf
        print(f"Estimates conservative (>= MRF): {conservative}")


if __name__ == "__main__":
    name = sys.argv[1] if len(sys.argv) > 1 else "cut_out"
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    main(name, seed)
