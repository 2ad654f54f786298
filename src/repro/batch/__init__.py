"""Batch evaluation campaigns: scenario x seed x FPR sweeps at scale.

The paper's statistical claims rest on sweeping many scenarios, jitter
seeds and fixed FPR settings; this package turns that from a hand-written
loop into a first-class subsystem:

* :mod:`repro.batch.campaign` — the grid specs (a campaign; the
  shared :class:`Grid` a replay plan also builds on), their
  deterministic expansion into per-run specs, and cell-stable sharding.
* :mod:`repro.batch.runner` — sequential or process-parallel execution
  of either grid kind with per-run failure capture, cross-variant trace
  caching, streaming JSONL output and resume.
* :mod:`repro.batch.results` — per-run summaries, streaming JSONL
  persistence (campaign schema 2, replay schema 1), reload and shard
  merging.
* :mod:`repro.batch.reporting` — the wall clock: footer elapsed time
  and the ``<out>.heartbeat`` progress sidecar.
* :mod:`repro.batch.aggregate` — Table 1 rows and MRF verdicts straight
  from a stored campaign, no re-simulation.

Quickstart::

    from repro.batch import Campaign, CampaignRunner, render_campaign_table

    campaign = Campaign(scenarios=("cut_out", "cut_in"), seeds=(0, 1))
    runner = CampaignRunner(workers=4)
    result = runner.run(campaign, out="campaign.jsonl")  # streamed
    # ... kill it mid-flight, then later:
    result = runner.resume("campaign.jsonl")             # runs the rest
    print(render_campaign_table(result))

See docs/CAMPAIGNS.md for the JSONL schema and the resume / shard /
merge workflows, and docs/ARCHITECTURE.md for where this package sits
in the pipeline.
"""

from repro.batch.campaign import (
    DEFAULT_VARIANT,
    SCHEMA_VERSION,
    Campaign,
    Grid,
    ParamVariant,
    RunSpec,
)
from repro.batch.runner import (
    CampaignRunner,
    execute_cell,
    execute_run,
    execute_supercell,
)
from repro.batch.results import (
    CampaignResult,
    CampaignWriter,
    RunSummary,
)
from repro.batch.aggregate import (
    campaign_table1,
    render_campaign_table,
    summarize_failures,
)

__all__ = [
    "Campaign",
    "Grid",
    "ParamVariant",
    "RunSpec",
    "DEFAULT_VARIANT",
    "CampaignRunner",
    "execute_cell",
    "execute_run",
    "execute_supercell",
    "CampaignResult",
    "CampaignWriter",
    "RunSummary",
    "SCHEMA_VERSION",
    "campaign_table1",
    "render_campaign_table",
    "summarize_failures",
]
