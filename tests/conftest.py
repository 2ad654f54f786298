"""Shared fixtures.

Closed-loop runs cost ~1 s each, so integration tests share
session-scoped traces instead of re-running scenarios per test.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import build_scenario
from repro.core.parameters import ZhuyiParams
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
