"""Property-based tests: Equation 5 as one array program.

:func:`camera_fpr_columns` rolls a whole (tick, actor) latency table up
at once; at every tick it must give the :class:`CameraEstimate`s of the
scalar reference :func:`estimate_camera_fprs` run on that tick's
dictionaries, field for field and in camera order.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.core.fpr import camera_fpr_columns, estimate_camera_fprs
from repro.core.parameters import ZhuyiParams

PARAMS = ZhuyiParams()
CAMERAS = ("front_120", "left", "right")

#: An actor missing from a tick's latencies (gated out).
ABSENT = "absent"

#: One table entry: absent, unavoidable (``None``), a grid latency, or
#: ``l_max`` again — so exact ties and non-binding ``l_max`` entries
#: both occur often.
entries = st.one_of(
    st.just(ABSENT),
    st.none(),
    st.sampled_from(PARAMS.latency_grid()),
    st.just(PARAMS.l_max),
)


def bit_table(rows: list[list[bool]], n_ticks: int, n_actors: int):
    return np.array(rows, dtype=bool).reshape(n_ticks, n_actors)


def camera_row(columns, field: str, camera: str) -> list:
    """One camera's column of ``field`` over the ticks."""
    return getattr(columns, field)[columns.cameras.index(camera)].tolist()


def assert_matches_scalar(table, visible, detected=None):
    """Every tick of the array rollup equals the scalar rollup's."""
    n_ticks = len(table)
    n_actors = len(table[0]) if n_ticks else 0
    ids = [f"actor{a}" for a in range(n_actors)]
    latencies = np.array(
        [
            [
                np.inf if entry == ABSENT else np.nan if entry is None else entry
                for entry in row
            ]
            for row in table
        ],
        dtype=float,
    ).reshape(n_ticks, n_actors)
    members = {
        camera: bits if detected is None else bits & detected
        for camera, bits in visible.items()
    }
    columns = camera_fpr_columns(latencies, members, PARAMS)
    assert columns.cameras == tuple(visible)
    for i, row in enumerate(table):
        expected = estimate_camera_fprs(
            {ids[a]: entry for a, entry in enumerate(row) if entry != ABSENT},
            {
                camera: [ids[a] for a in np.flatnonzero(bits[i])]
                for camera, bits in members.items()
            },
            PARAMS,
        )
        got = columns.estimates(i, ids)
        assert got == expected
        assert list(got) == list(expected)
    return columns


@st.composite
def rollups(draw):
    n_ticks = draw(st.integers(min_value=1, max_value=6))
    n_actors = draw(st.integers(min_value=0, max_value=5))
    cells = n_ticks * n_actors
    table = [
        draw(st.lists(entries, min_size=n_actors, max_size=n_actors))
        for _ in range(n_ticks)
    ]
    bits = st.lists(st.booleans(), min_size=cells, max_size=cells)
    visible = {
        camera: bit_table(draw(bits), n_ticks, n_actors) for camera in CAMERAS
    }
    detected = draw(st.none() | bits)
    if detected is not None:
        detected = bit_table(detected, n_ticks, n_actors)
    return table, visible, detected


class TestArrayRollup:
    @given(rollups())
    def test_every_tick_equals_the_scalar_rollup(self, case):
        assert_matches_scalar(*case)

    def test_zero_actors(self):
        # The actor axis is empty: a plain reduction over it would raise.
        visible = {camera: np.zeros((3, 0), dtype=bool) for camera in CAMERAS}
        columns = assert_matches_scalar([[], [], []], visible)
        for camera in CAMERAS:
            assert camera_row(columns, "latency", camera) == [PARAMS.l_max] * 3
            assert camera_row(columns, "binding", camera) == [-1] * 3
            assert camera_row(columns, "count", camera) == [0] * 3

    def test_tick_without_a_gated_actor(self):
        visible = {camera: np.ones((2, 2), dtype=bool) for camera in CAMERAS}
        columns = assert_matches_scalar(
            [[ABSENT, ABSENT], [0.5, ABSENT]], visible
        )
        assert camera_row(columns, "latency", "front_120") == [PARAMS.l_max, 0.5]
        assert camera_row(columns, "count", "front_120") == [0, 1]

    def test_tie_binds_the_first_actor(self):
        visible = {camera: np.ones((1, 3), dtype=bool) for camera in CAMERAS}
        columns = assert_matches_scalar([[0.8, 0.4, 0.4]], visible)
        assert camera_row(columns, "binding", "left") == [1]

    def test_unavoidable_beside_a_finite_actor(self):
        visible = {camera: np.ones((1, 2), dtype=bool) for camera in CAMERAS}
        columns = assert_matches_scalar([[0.3, None]], visible)
        assert camera_row(columns, "unavoidable", "right") == [True]
        assert camera_row(columns, "binding", "right") == [1]
        assert camera_row(columns, "fpr", "right") == [PARAMS.fpr_cap()]

    def test_one_actor_seen_by_three_cameras(self):
        visible = {
            "front_120": np.array([[True, False]]),
            "left": np.array([[True, True]]),
            "right": np.array([[True, False]]),
            "rear": np.array([[False, True]]),
        }
        columns = assert_matches_scalar([[0.25, ABSENT]], visible)
        for camera in CAMERAS:
            assert camera_row(columns, "fpr", camera) == [4.0]
        assert camera_row(columns, "count", "rear") == [0]

    def test_detection_masks_hide_actors(self):
        visible = {camera: np.ones((1, 2), dtype=bool) for camera in CAMERAS}
        columns = assert_matches_scalar(
            [[0.2, 0.6]], visible, detected=np.array([[False, True]])
        )
        assert camera_row(columns, "latency", "front_120") == [0.6]
