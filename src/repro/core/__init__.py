"""The Zhuyi model — the paper's primary contribution.

This package implements Section 2 of the paper:

* :mod:`repro.core.parameters` — the model constants (C1-C4, K, M, L, ...).
* :mod:`repro.core.ego_profile` — closed forms for the ego's reaction and
  braking travel (``d_e1``, ``d_e2``, ``v_en``).
* :mod:`repro.core.threat` — turning an actor's predicted motion into the
  longitudinal quantities ``s_n(t)`` and ``v_an(t)`` of Equations 1-2.
* :mod:`repro.core.latency` — the tolerable-latency search (Equations 1-3).
* :mod:`repro.core.engine` — the batched latency kernel (the whole
  actors x latency-grid problem of a tick as one array program).
* :mod:`repro.core.aggregation` — Equation 4 (multi-trajectory aggregation).
* :mod:`repro.core.fpr` — Equation 5 (per-camera processing rate).
* :mod:`repro.core.evaluator` — the pre-deployment offline evaluator.
* :mod:`repro.core.online` — the post-deployment online estimator.
* :mod:`repro.core.compute` — the Section 4.2 compute-demand model.
"""

from repro.core.parameters import ZhuyiParams
from repro.core.ego_profile import (
    EgoMotion,
    braking_deceleration,
    ego_profile_arrays,
)
from repro.core.threat import (
    CorridorSpec,
    FixedGapThreat,
    LongitudinalThreat,
    ThreatAssessor,
    TrajectoryThreat,
    sample_grid,
)
from repro.core.latency import (
    BACKENDS,
    LatencyResult,
    LatencySearch,
    SearchStrategy,
    UNAVOIDABLE_LATENCY,
)
from repro.core.engine import LatencyEngine
from repro.core.aggregation import (
    Aggregator,
    MaxAggregator,
    MeanAggregator,
    PercentileAggregator,
)
from repro.core.fpr import CameraEstimate, fpr_from_latency, estimate_camera_fprs
from repro.core.evaluator import (
    EvaluationSeries,
    EvaluationTick,
    OfflineEvaluator,
    TraceSamples,
    presample_trace,
)
from repro.core.online import OnlineEstimator
from repro.core.compute import ComputeDemandModel

__all__ = [
    "ZhuyiParams",
    "EgoMotion",
    "braking_deceleration",
    "ego_profile_arrays",
    "LongitudinalThreat",
    "FixedGapThreat",
    "TrajectoryThreat",
    "ThreatAssessor",
    "CorridorSpec",
    "BACKENDS",
    "LatencyEngine",
    "LatencyResult",
    "LatencySearch",
    "SearchStrategy",
    "UNAVOIDABLE_LATENCY",
    "sample_grid",
    "Aggregator",
    "MaxAggregator",
    "MeanAggregator",
    "PercentileAggregator",
    "CameraEstimate",
    "fpr_from_latency",
    "estimate_camera_fprs",
    "OfflineEvaluator",
    "EvaluationSeries",
    "EvaluationTick",
    "TraceSamples",
    "presample_trace",
    "OnlineEstimator",
    "ComputeDemandModel",
]
