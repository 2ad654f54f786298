"""Aggregating a campaign into the paper's Table 1 (its validation).

For every scenario of a campaign that spans an FPR grid (several seeds,
as "simulations can be non-deterministic ... we run a scenario with a
fixed FPR ten times and show an average"), the rows are derived purely
from the stored summaries:

* the MRF verdict from the collision outcomes
  (:func:`repro.system.mrf.mrf_verdict`);
* the mean of the max estimated FPR per run at each fixed setting
  ("N/A" where any seed collided — the paper's convention for runs at
  or below the MRF);
* ``max(F_c1 + F_c2 + F_c3)`` across all runs;
* the fraction of the provision that peak demand needs.

No new simulations are launched; runs that failed outright contribute
no collision evidence and are surfaced via
:meth:`CampaignResult.failures`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.analysis.report import format_table
from repro.batch.campaign import Campaign
from repro.batch.results import CampaignResult
from repro.errors import ConfigurationError
from repro.scenarios.catalog import SCENARIOS
from repro.system.mrf import MRFResult, mrf_verdict


@dataclass(frozen=True)
class Table1Row:
    """One scenario's row."""

    scenario: str
    ego_speed_mph: float
    activity: Mapping[str, bool]
    paper_mrf: str
    mrf: MRFResult
    mean_estimates: Mapping[float, float | None]
    max_total_fpr: float
    fraction: float

    def cells(self, fprs: Sequence[float]) -> list[object]:
        """Row cells in the paper's column order."""
        def flag(key: str) -> str:
            return "Yes" if self.activity.get(key, False) else "No"

        cells: list[object] = [
            self.scenario,
            f"{self.ego_speed_mph:g}",
            flag("front"),
            flag("right"),
            flag("left"),
            self.mrf.label,
        ]
        for fpr in fprs:
            estimate = self.mean_estimates.get(fpr)
            cells.append("N/A" if estimate is None else f"{estimate:.1f}")
        cells.append(f"{self.max_total_fpr:.1f}")
        cells.append(f"{self.fraction:.2f}")
        return cells


def campaign_table1(
    result: CampaignResult, variant: str | None = None
) -> list[Table1Row]:
    """One Table 1 row per campaign scenario, from stored summaries.

    Pure aggregation: no simulation is launched, so the rows are a
    deterministic function of the summaries alone — a merged shard
    result yields exactly the rows of the monolithic campaign, and a
    reloaded JSONL file yields the rows of the in-memory result it was
    saved from.

    Args:
        result: a completed (or partial) campaign result; failed runs
            contribute nothing, collided runs contribute the paper's
            "N/A" convention.
        variant: which parameter variant's runs to aggregate; defaults
            to the campaign's first variant.

    Returns:
        Rows in the campaign's scenario order.

    Raises:
        ConfigurationError: ``variant`` is not in the campaign grid.
    """
    campaign = result.campaign
    variant = _resolve_variant(campaign, variant)
    return [
        _scenario_row(scenario, result, variant)
        for scenario in campaign.scenarios
    ]


def render_campaign_table(
    result: CampaignResult, variant: str | None = None
) -> str:
    """The campaign's Table 1 as printable text (paper column layout).

    Args:
        result: the campaign to render.
        variant: parameter variant to aggregate (default: the first).

    Returns:
        The table as aligned plain text, one row per scenario.
    """
    fprs = result.campaign.fprs
    headers = ["Scenario", "mph", "Front", "Right", "Left", "MRF"]
    headers += [f"@{fpr:g}" for fpr in fprs]
    headers += ["max(Fc1+Fc2+Fc3)", "Fraction"]
    rows = campaign_table1(result, variant)
    return format_table(headers, [row.cells(fprs) for row in rows])


def _resolve_variant(campaign: Campaign, variant: str | None) -> str:
    names = [v.name for v in campaign.variants]
    if variant is None:
        return names[0]
    if variant not in names:
        raise ConfigurationError(
            f"unknown variant {variant!r}; campaign has {names}"
        )
    return variant


def _scenario_row(
    scenario: str, result: CampaignResult, variant: str
) -> Table1Row:
    campaign = result.campaign
    outcomes: dict[float, list[bool]] = {fpr: [] for fpr in campaign.fprs}
    estimates: dict[float, list[float]] = {fpr: [] for fpr in campaign.fprs}
    max_total = 0.0
    for summary in result.for_scenario(scenario, variant=variant):
        if not summary.ok:
            continue
        outcomes[summary.fpr].append(summary.collided)
        if summary.collided:
            continue
        if summary.max_fpr is not None:
            estimates[summary.fpr].append(summary.max_fpr)
        if summary.max_total_fpr is not None:
            max_total = max(max_total, summary.max_total_fpr)

    mean_estimates: dict[float, float | None] = {
        fpr: (
            None
            if any(outcomes[fpr]) or not values
            else sum(values) / len(values)
        )
        for fpr, values in estimates.items()
    }
    spec = SCENARIOS[scenario]
    provision = campaign.provisioned_fpr * len(campaign.cameras)
    return Table1Row(
        scenario=scenario,
        ego_speed_mph=spec.ego_speed_mph,
        activity=dict(spec.activity),
        paper_mrf=spec.paper_mrf,
        mrf=mrf_verdict(scenario, outcomes),
        mean_estimates=mean_estimates,
        max_total_fpr=max_total,
        fraction=max_total / provision if provision else 0.0,
    )


def summarize_failures(result: CampaignResult) -> str:
    """A short plain-text report of failed runs (empty string if none)."""
    failures = result.failures()
    if not failures:
        return ""
    lines = [f"{len(failures)} failed run(s):"]
    lines.extend(
        f"  #{s.index} {s.scenario} seed={s.seed} fpr={s.fpr:g} "
        f"[{s.variant}]: {s.error}"
        for s in failures
    )
    return "\n".join(lines)
