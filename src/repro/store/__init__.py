"""Simulate-once trace store: columnar traces, memmap bundles, replay.

The store turns the simulator's dominant cost — running the closed
loop — into a one-time expense. Traces are converted to flat float64
columns (:class:`TraceArrays`), persisted as ``.npz``-style bundles
keyed by ``(scenario, seed, fpr, sim_version, code fingerprint)``
(:class:`TraceStore`), and reopened read-only through numpy memmaps as
zero-copy :class:`ColumnarTrace` objects that the evaluation engines
consume directly. :mod:`repro.store.replay` re-estimates recorded
traces under arbitrary parameter/predictor/aggregator variants without
ever touching the simulator.
"""

from repro.store.arrays import ColumnarTrace, TraceArrays, trace_arrays_equal
from repro.store.fingerprint import code_fingerprint
from repro.store.replay import (
    ReplayPlan,
    ReplayService,
    ReplayVariant,
    execute_replay_cell,
)
from repro.store.store import SIM_VERSION, STORE_SCHEMA, StoreKey, TraceStore

__all__ = [
    "ColumnarTrace",
    "ReplayPlan",
    "ReplayService",
    "ReplayVariant",
    "SIM_VERSION",
    "STORE_SCHEMA",
    "StoreKey",
    "TraceArrays",
    "TraceStore",
    "code_fingerprint",
    "execute_replay_cell",
    "trace_arrays_equal",
]
