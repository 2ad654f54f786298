"""Property-based tests: the block ego profile against the per-tick form.

:func:`repro.core.ego_profile.ego_profile_arrays` builds the coast-then-
brake profiles of many ticks and candidates in blocks, evaluating the
braking terms only past each candidate's reaction time. Every (tick,
candidate) row and every ``t_r`` sample must equal, byte for byte, the
profile the engine built one tick at a time before block profiles, with
its coast taken from the scalar ``travel`` reference at every instant:
the braking formula is frozen below so the reference cannot move with
the routine. The draw puts egos above a speed cap too, where the coast
and the braking anchors must hold the same ``v0``.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ego_profile
from repro.core.ego_profile import EgoMotion, ego_profile_arrays
from repro.core.parameters import ZhuyiParams
from repro.dynamics.longitudinal import travel

PARAMS = ZhuyiParams()


def frozen_tick_profile(ego, reactions, times, cap):
    """One tick's ``(S, T)`` profiles and ``(S,)`` t_r samples, frozen.

    The coast is the scalar ``travel`` at each instant of ``times ++
    reactions``; past each t_r the per-tick braking formula runs from
    scalar reaction-travel anchors. Candidate ``i``'s own t_r sample is
    the diagonal of the reaction block.
    """
    pairs = [ego.reaction_travel(float(r), cap) for r in reactions]
    d_e1 = np.array([p[0] for p in pairs])[:, None]
    v_tr = np.array([p[1] for p in pairs])[:, None]
    reaction = reactions[:, None]
    coast = np.concatenate([times, reactions])
    coast_terms = [travel(ego.speed, ego.accel, float(t), cap) for t in coast]
    coast_distance = np.array([d for d, _ in coast_terms])
    coast_speed = np.array([v for _, v in coast_terms])
    a_b = ego.braking_decel
    tau = np.maximum(0.0, coast - reaction)
    v_brake = np.maximum(0.0, v_tr - a_b * tau)
    d_brake = d_e1 + (v_tr**2 - v_brake**2) / (2.0 * a_b)
    braking = coast > reaction
    distance = np.where(braking, d_brake, coast_distance)
    speed = np.where(braking, v_brake, coast_speed)
    n = times.size
    own = (np.arange(reactions.size), n + np.arange(reactions.size))
    return distance[:, :n], speed[:, :n], distance[own], speed[own]


accel = st.one_of(
    st.just(0.0), st.floats(min_value=-8.0, max_value=4.0, width=64)
)
cruising = st.tuples(st.floats(min_value=0.0, max_value=40.0), accel)
# Slow decelerating egos come to rest inside the reaction window.
stopping = st.tuples(
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=-8.0, max_value=-2.0),
)
tick_states = st.lists(st.one_of(cruising, stopping), min_size=1, max_size=40)


@st.composite
def profile_cases(draw):
    states = draw(tick_states)
    egos = [EgoMotion.from_state(v, a, PARAMS) for v, a in states]
    speeds = [v for v, _ in states]
    kind = draw(st.sampled_from(["none", "below", "above"]))
    if kind == "none":
        cap = None
    elif kind == "below":
        cap = draw(st.floats(min_value=0.1, max_value=1.0)) * max(
            min(speeds), 0.5
        )
    else:
        cap = max(speeds) + draw(st.floats(min_value=0.1, max_value=10.0))
    step = draw(st.sampled_from([0.01, 0.05, 0.1, 0.25]))
    times = np.arange(0.0, draw(st.floats(min_value=0.2, max_value=4.0)), step)
    # Free reactions, one exactly on a grid instant and one past the
    # last instant (its braking columns are empty).
    free = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=float(times[-1])),
            max_size=13,
        )
    )
    on_grid = float(times[draw(st.integers(0, times.size - 1))])
    past_end = float(times[-1]) + draw(st.floats(min_value=1e-6, max_value=2.0))
    reactions = np.array(draw(st.permutations(free + [on_grid, past_end])))
    ticks_per_block = draw(st.integers(min_value=1, max_value=3))
    return egos, reactions, times, cap, ticks_per_block


def assert_rows_match(egos, reactions, times, cap, ticks_per_block):
    block = ticks_per_block * reactions.size * times.size
    with mock.patch.object(ego_profile, "_PROFILE_BLOCK_ELEMENTS", block):
        distance, speed, distance_r, speed_r = ego_profile_arrays(
            egos, reactions, times, cap
        )
    assert distance.shape == speed.shape == (len(egos), reactions.size, times.size)
    assert distance_r.shape == speed_r.shape == (len(egos), reactions.size)
    for u, ego in enumerate(egos):
        expected = frozen_tick_profile(ego, reactions, times, cap)
        for j in range(reactions.size):
            assert distance[u, j].tobytes() == expected[0][j].tobytes()
            assert speed[u, j].tobytes() == expected[1][j].tobytes()
        assert distance_r[u].tobytes() == expected[2].tobytes()
        assert speed_r[u].tobytes() == expected[3].tobytes()


class TestBlockProfileParity:
    @settings(max_examples=150, deadline=None)
    @given(profile_cases())
    def test_rows_and_reaction_samples_match_the_per_tick_form(self, case):
        assert_rows_match(*case)

    @settings(max_examples=60, deadline=None)
    @given(
        tick_states,
        st.floats(min_value=0.0, max_value=5.0),
        st.sampled_from([None, 15.0]),
    )
    def test_one_candidate(self, states, reaction, cap):
        # The scalar search's case: one tick or many, one reaction.
        egos = [EgoMotion.from_state(v, a, PARAMS) for v, a in states]
        times = np.arange(0.0, 6.0, 0.05)
        assert_rows_match(egos, np.array([reaction]), times, cap, 1)

    def test_no_ticks(self):
        distance, speed, distance_r, speed_r = ego_profile_arrays(
            [], np.array([0.5, 1.0]), np.arange(0.0, 1.0, 0.1)
        )
        assert distance.shape == speed.shape == (0, 2, 10)
        assert distance_r.shape == speed_r.shape == (0, 2)
