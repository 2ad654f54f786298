"""Reproduction of *Zhuyi: Perception Processing Rate Estimation for
Safety in Autonomous Vehicles* (Hsiao et al., DAC 2022).

Zhuyi continuously estimates, per camera, the minimum frame processing
rate (FPR) an autonomous vehicle needs to stay collision-free. This
package provides:

* ``repro.core`` — the Zhuyi model itself (tolerable-latency search,
  trajectory aggregation, per-camera FPR, offline/online estimators).
* ``repro.system`` — the Zhuyi-based AV system of Section 3 (safety
  check, work prioritization, the MRF verdict).
* substrates replacing the paper's closed-source infrastructure:
  ``geometry``, ``road``, ``dynamics``, ``actors``, ``perception``,
  ``prediction``, ``planning``, ``sim`` and the ``scenarios`` catalog.
* ``repro.batch`` — campaigns: scenario x seed x FPR grids run in
  parallel, resumable and sharded, aggregated into Table 1.
* ``repro.analysis`` — harnesses regenerating the figures.

Quickstart::

    from repro import build_scenario, OfflineEvaluator

    scenario = build_scenario("cut_in", seed=0)
    trace = scenario.run(fpr=30.0)
    series = OfflineEvaluator(road=scenario.road).evaluate(trace)
    print(series.max_fpr("front_120"), series.fraction_of_provision())
"""

from repro.core import (
    ComputeDemandModel,
    EvaluationSeries,
    EvaluationTick,
    LatencyResult,
    LatencySearch,
    MaxAggregator,
    MeanAggregator,
    OfflineEvaluator,
    OnlineEstimator,
    PercentileAggregator,
    SearchStrategy,
    ZhuyiParams,
)
from repro.scenarios import SCENARIO_NAMES, BuiltScenario, build_scenario

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ZhuyiParams",
    "LatencySearch",
    "LatencyResult",
    "SearchStrategy",
    "MaxAggregator",
    "MeanAggregator",
    "PercentileAggregator",
    "OfflineEvaluator",
    "OnlineEstimator",
    "EvaluationSeries",
    "EvaluationTick",
    "ComputeDemandModel",
    "build_scenario",
    "BuiltScenario",
    "SCENARIO_NAMES",
]
