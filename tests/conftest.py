"""Shared fixtures.

Closed-loop runs cost ~1 s each, so integration tests share
session-scoped traces instead of re-running scenarios per test.
"""

from __future__ import annotations

import inspect
import json
from collections import Counter

import numpy as np
import pytest

from repro import build_scenario
from repro.core.ego_profile import EgoMotion
from repro.core.engine import LatencyEngine
from repro.core.parameters import ZhuyiParams
from repro.core.threat import sample_grid
from repro.dynamics.state import VehicleSpec
from repro.road.track import three_lane_straight_road
from repro.sim.trace import COLUMNS, ScenarioTrace


def _columns_equal(a: ScenarioTrace, b: ScenarioTrace) -> bool:
    """Bit-exact equality of two traces' headers, vocabularies and columns."""
    return (
        a.scenario == b.scenario
        and a.dt == b.dt
        and a.nominal_fpr == b.nominal_fpr
        and a.seed == b.seed
        and a.ego_spec == b.ego_spec
        and a.actor_specs == b.actor_specs
        and a.metadata == b.metadata
        and a.collisions == b.collisions
        and a.actor_ids() == b.actor_ids()
        and a.actor_offsets == b.actor_offsets
        and a.mode_vocab == b.mode_vocab
        and a.camera_vocab == b.camera_vocab
        and all(
            a.columns[name].shape == b.columns[name].shape
            and np.array_equal(a.columns[name], b.columns[name])
            for name in COLUMNS
        )
    )


@pytest.fixture(scope="session")
def columns_equal():
    """The bit-exact trace comparison (session scope suits hypothesis)."""
    return _columns_equal


def _producers_agree(trace: ScenarioTrace) -> bool:
    """Whether a simulated trace's columns are also what its steps record.

    The simulator records columns directly and builds its steps only on
    demand; a trace constructed from those steps and the steps' JSON
    round trip must record the same columns and vocabularies.
    """
    from_steps = ScenarioTrace(
        scenario=trace.scenario,
        dt=trace.dt,
        steps=trace.steps,
        collisions=trace.collisions,
        nominal_fpr=trace.nominal_fpr,
        seed=trace.seed,
        ego_spec=trace.ego_spec,
        actor_specs=trace.actor_specs,
        metadata=trace.metadata,
    )
    from_json = ScenarioTrace.from_dict(json.loads(json.dumps(trace.to_dict())))
    return _columns_equal(trace, from_steps) and _columns_equal(
        trace, from_json
    )


@pytest.fixture(scope="session")
def producers_agree():
    """The simulator-vs-step-producers column check."""
    return _producers_agree


def _solve_tick(engine: LatencyEngine, ego: EgoMotion, threats, l0: float):
    """One tick's threats solved as rows of a one-tick grid.

    The engine's single-tick case: ``trace_grid`` over the one ego
    motion, each threat sampled on the master grid plus the reaction
    instants, one ``solve_rows`` call with a row per threat.
    """
    grid = engine.trace_grid([ego], l0)
    rel_times = np.concatenate([grid.times, grid.reactions])
    gaps = np.empty((len(threats), rel_times.size))
    speeds = np.empty((len(threats), rel_times.size))
    for row, threat in enumerate(threats):
        gaps[row], speeds[row] = sample_grid(threat, rel_times)
    return engine.solve_rows(
        grid, np.zeros(len(threats), dtype=np.int64), [ego], gaps, speeds
    )


@pytest.fixture(scope="session")
def solve_tick():
    """The one-tick ``trace_grid`` + ``solve_rows`` solve."""
    return _solve_tick


@pytest.fixture(params=[200.0, 0.0, -5.0, float("nan"), float("inf")])
def unrunnable_fpr(request) -> float:
    """A rate no camera can be configured to run at.

    Above ``MAX_FPR``, zero, negative, NaN and infinite: each used to
    run at a clamped rate under its own name.
    """
    return request.param


@pytest.fixture(scope="session")
def params() -> ZhuyiParams:
    """The paper's model constants."""
    return ZhuyiParams()


@pytest.fixture(scope="session")
def straight_road():
    """A 2 km straight 3-lane highway."""
    return three_lane_straight_road(length=2000.0)


@pytest.fixture(scope="session")
def car_spec() -> VehicleSpec:
    """Default mid-size car."""
    return VehicleSpec()


@pytest.fixture(scope="session")
def cut_in_trace_30():
    """Cut-in scenario at 30 FPR (shared across integration tests)."""
    return build_scenario("cut_in", seed=0).run(fpr=30.0)


@pytest.fixture(scope="session")
def cut_out_trace_30():
    """Cut-out scenario at 30 FPR."""
    return build_scenario("cut_out", seed=0).run(fpr=30.0)


@pytest.fixture(scope="session")
def vehicle_following_trace_30():
    """Vehicle-following scenario at 30 FPR."""
    return build_scenario("vehicle_following", seed=0).run(fpr=30.0)


class CallCounter(Counter):
    """Counts calls of watched methods, keyed by method name."""

    def __init__(self, monkeypatch):
        super().__init__()
        self._monkeypatch = monkeypatch

    def watch(self, owner, name: str) -> None:
        """Wrap ``owner.name`` (a method or staticmethod) to count calls."""
        original = getattr(owner, name)
        static = isinstance(inspect.getattr_static(owner, name), staticmethod)

        def counted(*args, **kwargs):
            self[name] += 1
            return original(*args, **kwargs)

        self._monkeypatch.setattr(
            owner, name, staticmethod(counted) if static else counted
        )


@pytest.fixture
def call_counter(monkeypatch) -> CallCounter:
    """A :class:`CallCounter` whose wrappers undo after the test."""
    return CallCounter(monkeypatch)
