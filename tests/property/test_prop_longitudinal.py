"""Property-based tests: clamped longitudinal kinematics."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dynamics.longitudinal import (
    braking_distance,
    time_to_stop,
    travel,
    travel_arrays,
)

speed = st.floats(min_value=0.0, max_value=60.0)
accel = st.floats(min_value=-10.0, max_value=5.0)
duration = st.floats(min_value=0.0, max_value=30.0)
decel = st.floats(min_value=0.5, max_value=10.0)


class TestTravelProperties:
    @given(speed, accel, duration)
    def test_distance_non_negative(self, v, a, t):
        distance, _ = travel(v, a, t)
        assert distance >= 0.0

    @given(speed, accel, duration)
    def test_end_speed_non_negative(self, v, a, t):
        _, end = travel(v, a, t)
        assert end >= 0.0

    @given(speed, accel, duration, duration)
    def test_distance_monotone_in_time(self, v, a, t1, t2):
        lo, hi = sorted((t1, t2))
        d_lo, _ = travel(v, a, lo)
        d_hi, _ = travel(v, a, hi)
        assert d_hi >= d_lo - 1e-9

    @given(speed, accel, duration, duration)
    def test_additivity(self, v, a, t1, t2):
        # Travelling t1 then t2 from the reached speed equals one segment
        # of t1+t2 (for braking segments — acceleration without a cap is
        # also additive).
        d1, v1 = travel(v, a, t1)
        d2, _ = travel(v1, a, t2) if a <= 0 else (None, None)
        if d2 is None:
            return
        total, _ = travel(v, a, t1 + t2)
        assert math.isclose(d1 + d2, total, rel_tol=1e-9, abs_tol=1e-6)

    @given(speed, st.floats(min_value=0.1, max_value=5.0), duration,
           st.floats(min_value=1.0, max_value=60.0))
    def test_cap_never_exceeded(self, v, a, t, cap):
        _, end = travel(v, a, t, max_speed=max(cap, v))
        assert end <= max(cap, v) + 1e-9


class TestStoppingProperties:
    @given(speed, decel)
    def test_travel_reaches_braking_distance(self, v, b):
        t_stop = time_to_stop(v, b)
        distance, end = travel(v, -b, t_stop + 1.0)
        assert end == 0.0
        assert math.isclose(
            distance, braking_distance(v, b), rel_tol=1e-9, abs_tol=1e-9
        )

    @given(speed, decel, decel)
    def test_stronger_braking_shorter_distance(self, v, b1, b2):
        lo, hi = sorted((b1, b2))
        assert braking_distance(v, hi) <= braking_distance(v, lo) + 1e-9


# Zero, subnormal and ordinary magnitudes: a subnormal speed's time to
# zero can underflow to 0, and a subnormal acceleration's times to zero
# and to the cap overflow to inf.
subnormal = st.floats(min_value=5e-324, max_value=2e-308)


def spread(lo, hi):
    """Full-mantissa floats in ``[lo, hi]``: squaring by libm ``pow``
    instead of by multiplication differs on about 1 in 2,500 random
    distances, and rarely on the short mantissas hypothesis favours."""
    return st.integers(min_value=0, max_value=2**53).map(
        lambda k: lo + (hi - lo) * k / 2**53
    )


kernel_speed = st.one_of(st.just(0.0), subnormal, speed, spread(0.0, 60.0))
kernel_accel = st.one_of(
    st.just(0.0),
    subnormal,
    subnormal.map(lambda x: -x),
    accel,
    spread(-10.0, 5.0),
)


@st.composite
def kernel_batches(draw):
    """``(states, durations, cap)`` for a (ticks, 1) x (instants,) call.

    Caps are none, below, at or above one tick's speed; durations are
    zero, free, and exactly each tick's time to zero or to the cap
    where that falls within the 30 s duration range.
    """
    states = draw(
        st.lists(st.tuples(kernel_speed, kernel_accel), min_size=1, max_size=8)
    )
    ref = draw(st.sampled_from([v for v, _ in states]))
    kind = draw(st.sampled_from(["none", "below", "at", "above"]))
    if kind == "none":
        cap = None
    elif kind == "below":
        cap = ref * draw(st.floats(min_value=0.0, max_value=1.0))
    elif kind == "at":
        cap = ref
    else:
        cap = ref + draw(st.floats(min_value=1e-9, max_value=20.0))
    limits = []
    for v, a in states:
        if a < 0.0:
            limits.append(v / -a)
        elif a > 0.0 and cap is not None and v < cap:
            limits.append((cap - v) / a)
    free = draw(st.lists(st.one_of(duration, spread(0.0, 30.0)), max_size=12))
    durations = [0.0] + free + [t for t in limits if t <= 30.0]
    return states, durations, cap


class TestTravelArraysProperties:
    @settings(max_examples=300, deadline=None)
    @given(kernel_batches())
    # Knife edges: at exactly the time to zero (to the cap) v0 + a*t
    # rounds below zero (below the cap).
    @example(
        (
            [
                (15.499591600957965, -4.883766884505305),
                (5.290217119641222, 0.5980131407300194),
            ],
            [0.0, 3.1736960357656336, 32.95877889288223],
            25.0,
        )
    )
    def test_equals_scalar_travel_bit_for_bit(self, batch):
        states, durations, cap = batch
        speeds = np.array([[v] for v, _ in states])
        accels = np.array([[a] for _, a in states])
        distance, end_speed = travel_arrays(
            speeds, accels, np.array(durations), cap
        )
        assert distance.shape == end_speed.shape == (
            len(states),
            len(durations),
        )
        for i, (v, a) in enumerate(states):
            for j, t in enumerate(durations):
                ref_distance, ref_speed = travel(v, a, t, cap)
                assert (
                    distance[i, j].tobytes()
                    == np.float64(ref_distance).tobytes()
                ), (v, a, t, cap)
                assert (
                    end_speed[i, j].tobytes()
                    == np.float64(ref_speed).tobytes()
                ), (v, a, t, cap)
