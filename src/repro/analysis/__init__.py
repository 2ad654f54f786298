"""Experiment harnesses regenerating every table and figure of the paper.

* :mod:`repro.analysis.throughput` — Figure 1 (TOPS demand vs SoCs).
* :mod:`repro.analysis.figures` — Figures 4-7 (latency series over time).
* :mod:`repro.analysis.sensitivity` — Figure 8 (velocity sweeps).
* :mod:`repro.analysis.report` — ASCII tables, heatmaps and series.

Table 1 (the validation across scenarios) is not a harness of its own:
it runs as a campaign and is aggregated by
:func:`repro.batch.aggregate.campaign_table1`.
"""

from repro.analysis.throughput import (
    PERCEPTION_MODELS,
    SOC_CATALOG,
    PerceptionModel,
    SoC,
    ThroughputModel,
)
from repro.analysis.figures import (
    FigureSeries,
    decel_correlation,
    offline_figure_series,
    online_figure_series,
)
from repro.analysis.sensitivity import SensitivityGrid, sweep_min_fpr
from repro.analysis.report import (
    format_table,
    pearson_correlation,
    render_heatmap,
    render_series,
)

__all__ = [
    "PerceptionModel",
    "SoC",
    "ThroughputModel",
    "PERCEPTION_MODELS",
    "SOC_CATALOG",
    "FigureSeries",
    "offline_figure_series",
    "online_figure_series",
    "decel_correlation",
    "SensitivityGrid",
    "sweep_min_fpr",
    "format_table",
    "render_heatmap",
    "render_series",
    "pearson_correlation",
]
