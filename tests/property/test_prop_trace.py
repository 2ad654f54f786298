"""Property-based tests: trace serialization is lossless.

Satellite of the trace-store PR: whatever a trace holds — planner
modes, per-step camera FPRs, vehicle specs, collision payloads, typed
metadata — must survive both round trips bit for bit: the JSON archive
(``to_dict``/``from_dict``) and the trace's own columns, which the
store persists (steps rebuilt by ``ScenarioTrace.from_columns``).
Silent loss here would quietly break the warm campaign byte-parity
contract, so the generator deliberately covers ragged camera mappings,
actors that enter mid-trace, duplicate-free mode vocabularies and
nested metadata.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamics.state import VehicleSpec, VehicleState
from repro.errors import TraceError
from repro.geometry.vec import Vec2
from repro.sim.collision import CollisionEvent
from repro.sim.trace import ScenarioTrace, TraceStep

ACTORS = ("lead", "cutter", "trailer")
CAMERAS = ("front", "left", "right")
MODES = ("cruise", "brake", "swerve")

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
small = st.floats(
    min_value=0.0, max_value=60.0, allow_nan=False, allow_infinity=False
)


@st.composite
def states(draw):
    return VehicleState(
        position=Vec2(draw(finite), draw(finite)),
        heading=draw(finite),
        speed=draw(small),
        accel=draw(finite),
    )


@st.composite
def specs(draw):
    length = draw(small) + 3.0
    return VehicleSpec(
        length=length,
        width=draw(small) + 1.0,
        wheelbase=draw(st.floats(min_value=0.3, max_value=0.9)) * length,
        max_accel=draw(small) + 0.1,
        max_decel=draw(small) + 0.1,
        max_speed=draw(small) + 1.0,
    )


metadata_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**31), max_value=2**31),
    finite,
    st.text(max_size=8),
)
metadata_values = st.recursive(
    metadata_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=6), children, max_size=3),
    ),
    max_leaves=6,
)


@st.composite
def traces(draw):
    n_steps = draw(st.integers(min_value=2, max_value=10))
    # Strictly ascending timestamps with irregular gaps.
    gaps = draw(
        st.lists(
            st.floats(min_value=1e-3, max_value=2.0),
            min_size=n_steps,
            max_size=n_steps,
        )
    )
    times = np.cumsum(gaps)

    # Each actor occupies one contiguous [start, end) window; windows
    # are assigned to the actor tuple in ascending start order so every
    # step's insertion order equals the global first-appearance order
    # (the invariant the simulator upholds and the columnar form
    # requires).
    n_actors = draw(st.integers(min_value=0, max_value=len(ACTORS)))
    windows = sorted(
        (
            draw(st.integers(min_value=0, max_value=n_steps - 1)),
            draw(st.integers(min_value=1, max_value=n_steps)),
        )
        for _ in range(n_actors)
    )
    windows = [(lo, max(lo + 1, hi)) for lo, hi in windows]

    steps = []
    for pos in range(n_steps):
        actors = {
            ACTORS[rank]: draw(states())
            for rank, (lo, hi) in enumerate(windows)
            if lo <= pos < hi
        }
        cameras = draw(
            st.lists(st.sampled_from(CAMERAS), unique=True, max_size=3)
        )
        steps.append(
            TraceStep(
                time=float(times[pos]),
                ego=draw(states()),
                actors=actors,
                planner_mode=draw(st.sampled_from(MODES)),
                camera_fprs={name: draw(small) for name in cameras},
            )
        )

    collided = draw(st.booleans()) and n_actors > 0
    return ScenarioTrace(
        scenario=draw(st.sampled_from(("cut_in", "cut_out", "synthetic"))),
        dt=float(times[0]),
        steps=steps,
        collisions=(
            [
                CollisionEvent(
                    time=float(times[-1]),
                    actor_id=ACTORS[draw(st.integers(0, n_actors - 1))],
                )
            ]
            if collided
            else []
        ),
        nominal_fpr=draw(st.one_of(st.none(), st.just(30.0))),
        seed=draw(st.one_of(st.none(), st.integers(0, 99))),
        ego_spec=draw(specs()),
        actor_specs={
            ACTORS[rank]: draw(specs()) for rank in range(n_actors)
        },
        metadata=draw(
            st.dictionaries(st.text(max_size=6), metadata_values, max_size=3)
        ),
    )


def column_copy(trace: ScenarioTrace) -> ScenarioTrace:
    """A trace over ``trace``'s columns alone: its steps build on demand."""
    return ScenarioTrace.from_columns(
        trace.header_dict(),
        trace.columns,
        actor_order=trace.actor_ids(),
        actor_offsets=trace.actor_offsets,
        mode_vocab=trace.mode_vocab,
        camera_vocab=trace.camera_vocab,
    )


def from_steps(trace: ScenarioTrace) -> ScenarioTrace:
    """``trace`` re-recorded from its step objects (fresh columns)."""
    return ScenarioTrace(
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


def assert_traces_equal(a: ScenarioTrace, b: ScenarioTrace) -> None:
    """Bit-exact step-level equality, iteration orders included."""
    assert a.scenario == b.scenario
    assert a.dt == b.dt
    assert a.nominal_fpr == b.nominal_fpr
    assert a.seed == b.seed
    assert a.ego_spec == b.ego_spec
    assert a.actor_specs == b.actor_specs
    assert list(a.actor_specs) == list(b.actor_specs)
    assert a.metadata == b.metadata
    assert a.collisions == b.collisions
    assert len(a.steps) == len(b.steps)
    for sa, sb in zip(a.steps, b.steps):
        assert sa.time == sb.time
        assert sa.ego == sb.ego
        assert dict(sa.actors) == dict(sb.actors)
        assert list(sa.actors) == list(sb.actors)
        assert sa.planner_mode == sb.planner_mode
        assert dict(sa.camera_fprs) == dict(sb.camera_fprs)
        assert list(sa.camera_fprs) == list(sb.camera_fprs)


class TestJsonRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(traces())
    def test_dict_round_trip_is_lossless(self, trace):
        data = json.loads(json.dumps(trace.to_dict()))
        assert_traces_equal(trace, ScenarioTrace.from_dict(data))

    @settings(max_examples=60, deadline=None)
    @given(traces())
    def test_columnar_round_trip_is_lossless(self, columns_equal, trace):
        back = column_copy(trace)
        assert_traces_equal(trace, back)
        assert columns_equal(trace, from_steps(back))

    @settings(max_examples=30, deadline=None)
    @given(traces())
    def test_json_then_columnar_commute(self, columns_equal, trace):
        via_json = ScenarioTrace.from_dict(
            json.loads(json.dumps(trace.to_dict()))
        )
        assert columns_equal(trace, via_json)


class TestLossRejection:
    def _step(self, **kwargs):
        defaults = dict(
            time=0.0,
            ego=VehicleState(position=Vec2(0.0, 0.0), heading=0.0, speed=0.0),
            actors={},
        )
        defaults.update(kwargs)
        return TraceStep(**defaults)

    def test_non_string_actor_id_rejected(self):
        step = self._step(
            actors={7: VehicleState(position=Vec2(0.0, 0.0), heading=0.0, speed=0.0)}
        )
        with pytest.raises(TraceError, match="must be strings"):
            ScenarioTrace(scenario="s", dt=0.1, steps=[step])

    def test_non_string_camera_id_rejected(self):
        step = self._step(camera_fprs={3: 12.0})
        with pytest.raises(TraceError, match="camera id"):
            ScenarioTrace(scenario="s", dt=0.1, steps=[step])

    def test_non_string_collision_actor_rejected(self):
        with pytest.raises(TraceError, match="collision actor ids"):
            ScenarioTrace(
                scenario="s",
                dt=0.1,
                steps=[self._step()],
                collisions=[CollisionEvent(time=0.0, actor_id=1)],
            )

    def test_metadata_numpy_scalars_collapse(self):
        trace = ScenarioTrace(
            scenario="s",
            dt=0.1,
            steps=[self._step()],
            metadata={
                "count": np.int64(4),
                "gain": np.float64(0.5),
                "nested": {"shape": (3, 4)},
            },
        )
        assert trace.metadata == {
            "count": 4,
            "gain": 0.5,
            "nested": {"shape": [3, 4]},
        }
        assert type(trace.metadata["count"]) is int
        reloaded = ScenarioTrace.from_dict(
            json.loads(json.dumps(trace.to_dict()))
        )
        assert reloaded.metadata == trace.metadata

    def test_unserializable_metadata_rejected(self):
        with pytest.raises(TraceError, match="JSON round trip"):
            ScenarioTrace(
                scenario="s",
                dt=0.1,
                steps=[self._step()],
                metadata={"bad": {1, 2}},
            )

    def test_inconsistent_actor_order_rejected(self):
        a = VehicleState(position=Vec2(0.0, 0.0), heading=0.0, speed=0.0)
        steps = [
            self._step(time=0.0, actors={"x": a, "y": a}),
            self._step(time=0.1, actors={"y": a, "x": a}),
        ]
        with pytest.raises(TraceError, match="first-appearance"):
            ScenarioTrace(scenario="s", dt=0.1, steps=steps)
