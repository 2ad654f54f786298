"""Simulate-once trace store: memmap bundles and replay.

The store turns the simulator's dominant cost — running the closed
loop — into a one-time expense. A trace's own columns
(:data:`repro.sim.trace.COLUMNS`) are persisted as ``.npy`` bundles
keyed by ``(scenario, seed, fpr, sim_version, code fingerprint)``
(:class:`TraceStore`) and reopened read-only through numpy memmaps as
the same :class:`~repro.sim.trace.ScenarioTrace` class the simulator
returns, whose trajectories adopt the mapped columns without copying.
:mod:`repro.store.replay` re-estimates recorded traces under arbitrary
parameter/predictor/aggregator variants without ever touching the
simulator.
"""

from repro.store.fingerprint import code_fingerprint
from repro.store.replay import (
    ReplayPlan,
    ReplayService,
    ReplayVariant,
    execute_replay_cell,
)
from repro.store.store import SIM_VERSION, STORE_SCHEMA, StoreKey, TraceStore

__all__ = [
    "ReplayPlan",
    "ReplayService",
    "ReplayVariant",
    "SIM_VERSION",
    "STORE_SCHEMA",
    "StoreKey",
    "TraceStore",
    "code_fingerprint",
    "execute_replay_cell",
]
