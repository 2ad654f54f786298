"""The Zhuyi-based AV system (Section 3 of the paper).

Wires the online estimator into the running AV: a **safety check** that
compares each camera's operating rate against Zhuyi's estimate and raises
alarms (Figure 3's green path), a **work prioritizer** that redistributes
a fixed frame budget across cameras proportionally to their estimates,
and the **MRF verdict** used to validate the model (Table 1's "Min
Required FPR" column, computed from a campaign's collision outcomes).
"""

from repro.system.safety_check import Alarm, SafetyChecker, SafetyVerdict
from repro.system.prioritization import (
    WorkPrioritizer,
    allocate_frame_budget,
    rank_actors,
)
from repro.system.av_system import ZhuyiOnlineSystem, OnlineRecord
from repro.system.mrf import MRFResult, mrf_verdict

__all__ = [
    "Alarm",
    "SafetyChecker",
    "SafetyVerdict",
    "WorkPrioritizer",
    "allocate_frame_budget",
    "rank_actors",
    "ZhuyiOnlineSystem",
    "OnlineRecord",
    "MRFResult",
    "mrf_verdict",
]
