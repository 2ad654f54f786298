"""Property-based tests: cross-trace row solving on stacked grids.

The contract pinned here (see ``repro/core/engine.py`` and the
cross-trace path in ``repro/core/evaluator.py``): stacking many traces'
ticks into one :meth:`LatencyEngine.trace_grid` — the master time axis
growing to the longest horizon of *any* stacked trace — changes nothing
about any row's answer. Concretely:

* solving a trace's rows through a stacked multi-trace grid is
  bit-identical to solving them through that trace's own grid;
* :meth:`LatencyEngine.solve_rows` is a pure per-row map — permutation
  invariant, and a whole batch (dense enough to engage the
  tick-resident grouped kernel) agrees with one-row-at-a-time solves
  (which take the gathered kernel), pinning the two kernels against
  each other;
* the variant axis — ``(V,)`` ``constraints`` vectors over untiled
  rows — matches dedicated engines carrying each variant's c1/c2, in
  both kernels, whether a row's variants resolve in one wave, in
  different waves or in none.

Bulk sample arrays come from seeded numpy generators (hypothesis draws
the seeds and shapes); the solver only ever compares these values, so
uniform noise exercises it as fully as simulated threats do.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import LatencyEngine
from repro.core.ego_profile import EgoMotion
from repro.core.parameters import ZhuyiParams

#: Hypothesis-heavy module: deselect locally with ``-m "not slow"``.
pytestmark = pytest.mark.slow

relaxed = settings(max_examples=80, deadline=None)

L0 = 1.0 / 30.0

seeds = st.integers(min_value=0, max_value=2**32 - 1)
tick_counts = st.integers(min_value=1, max_value=6)


def _motions(rng, count, params):
    """``count`` plausible ego longitudinal states."""
    return [
        EgoMotion.from_state(
            float(rng.uniform(0.5, 20.0)),
            float(rng.uniform(-4.0, 2.0)),
            params,
        )
        for _ in range(count)
    ]


def _rows(rng, n_ticks, per_tick, width):
    """Row tick indices plus uniform-noise threat samples."""
    ticks = np.repeat(np.arange(n_ticks), per_tick)
    gaps = rng.uniform(-5.0, 120.0, size=(ticks.size, width))
    speeds = rng.uniform(-10.0, 30.0, size=(ticks.size, width))
    return ticks, gaps, speeds


def _narrow(grid_wide, grid_narrow, samples):
    """Re-slice stacked-width samples to a single trace's width.

    The narrow master axis is a bit-exact prefix of the wide one and
    the reaction columns sit after the master block, so a trace's own
    sample layout is ``[:T_narrow]`` plus the trailing ``L`` columns.
    """
    t_wide = grid_wide.times.size
    t_narrow = grid_narrow.times.size
    return np.concatenate(
        [samples[:, :t_narrow], samples[:, t_wide:]], axis=1
    )


@relaxed
@given(seed=seeds, ticks_a=tick_counts, ticks_b=tick_counts)
def test_stacked_grid_matches_per_trace_solves(seed, ticks_a, ticks_b):
    """Rows through a two-trace stacked grid == per-trace grid solves."""
    params = ZhuyiParams()
    engine = LatencyEngine(params=params)
    rng = np.random.default_rng(seed)
    motions_a = _motions(rng, ticks_a, params)
    motions_b = _motions(rng, ticks_b, params)

    stacked = engine.trace_grid(motions_a + motions_b, L0)
    grid_a = engine.trace_grid(motions_a, L0)
    grid_b = engine.trace_grid(motions_b, L0)
    width = stacked.times.size + stacked.reactions.size

    ticks_arr_a, gaps_a, speeds_a = _rows(rng, ticks_a, 3, width)
    ticks_arr_b, gaps_b, speeds_b = _rows(rng, ticks_b, 3, width)

    combined = engine.solve_rows(
        stacked,
        np.concatenate([ticks_arr_a, ticks_arr_b + ticks_a]),
        motions_a + motions_b,
        np.vstack([gaps_a, gaps_b]),
        np.vstack([speeds_a, speeds_b]),
    )
    alone_a = engine.solve_rows(
        grid_a,
        ticks_arr_a,
        motions_a,
        _narrow(stacked, grid_a, gaps_a),
        _narrow(stacked, grid_a, speeds_a),
    )
    alone_b = engine.solve_rows(
        grid_b,
        ticks_arr_b,
        motions_b,
        _narrow(stacked, grid_b, gaps_b),
        _narrow(stacked, grid_b, speeds_b),
    )
    assert combined == alone_a + alone_b


@relaxed
@given(seed=seeds, n_ticks=tick_counts)
def test_solve_rows_permutation_invariant(seed, n_ticks):
    """An arbitrary row interleaving permutes the results and no more."""
    params = ZhuyiParams()
    engine = LatencyEngine(params=params)
    rng = np.random.default_rng(seed)
    motions = _motions(rng, n_ticks, params)
    grid = engine.trace_grid(motions, L0)
    width = grid.times.size + grid.reactions.size
    ticks, gaps, speeds = _rows(rng, n_ticks, 4, width)

    baseline = engine.solve_rows(grid, ticks, motions, gaps, speeds)
    perm = rng.permutation(ticks.size)
    shuffled = engine.solve_rows(
        grid, ticks[perm], motions, gaps[perm], speeds[perm]
    )
    assert shuffled == [baseline[i] for i in perm]


@relaxed
@given(seed=seeds, n_ticks=st.integers(min_value=1, max_value=3))
def test_grouped_kernel_matches_row_at_a_time(seed, n_ticks):
    """A tick-dense batch (grouped kernel) == singleton solves (gathered)."""
    params = ZhuyiParams()
    engine = LatencyEngine(params=params)
    rng = np.random.default_rng(seed)
    motions = _motions(rng, n_ticks, params)
    grid = engine.trace_grid(motions, L0)
    width = grid.times.size + grid.reactions.size
    # Well past _GROUPED_MIN_ROWS_PER_TICK rows per tick: the batch
    # call runs the tick-resident kernel, each singleton the gathered
    # one.
    ticks, gaps, speeds = _rows(rng, n_ticks, 24, width)

    batch = engine.solve_rows(grid, ticks, motions, gaps, speeds)
    singles = [
        engine.solve_rows(
            grid, ticks[r : r + 1], motions, gaps[r : r + 1],
            speeds[r : r + 1],
        )[0]
        for r in range(ticks.size)
    ]
    assert batch == singles


@relaxed
@given(seed=seeds, n_ticks=tick_counts)
def test_variant_constraints_match_dedicated_engines(seed, n_ticks):
    """(V,) c1/c2 constraint vectors == per-variant engines on the grid."""
    base = ZhuyiParams()
    engine = LatencyEngine(params=base)
    rng = np.random.default_rng(seed)
    motions = _motions(rng, n_ticks, base)
    grid = engine.trace_grid(motions, L0)
    width = grid.times.size + grid.reactions.size
    ticks, gaps, speeds = _rows(rng, n_ticks, 3, width)

    variants = [(1.0, 1.0), (0.85, 1.0), (1.0, 0.85), (0.9, 0.95)]
    stacked = engine.solve_rows(
        grid,
        ticks,
        motions,
        gaps,
        speeds,
        constraints=(
            np.array([c1 for c1, _ in variants]),
            np.array([c2 for _, c2 in variants]),
        ),
    )
    for vi, (c1, c2) in enumerate(variants):
        dedicated = LatencyEngine(
            params=replace(base, c1=c1, c2=c2)
        ).solve_rows(grid, ticks, motions, gaps, speeds)
        assert stacked[vi * ticks.size : (vi + 1) * ticks.size] == dedicated


constraint_pairs = st.lists(
    st.tuples(
        st.floats(min_value=0.7, max_value=1.0),
        st.floats(min_value=0.7, max_value=1.0),
    ),
    min_size=1,
    max_size=5,
)


@relaxed
@given(
    seed=seeds,
    n_ticks=st.integers(min_value=1, max_value=3),
    pairs=constraint_pairs,
)
def test_variant_axis_matches_dedicated_engines(seed, n_ticks, pairs):
    """V in 1..5 drawn (c1, c2) pairs over untiled rows == per-variant
    engines, as a tick-dense batch (grouped kernel) and as singletons
    (gathered kernel)."""
    base = ZhuyiParams()
    engine = LatencyEngine(params=base)
    rng = np.random.default_rng(seed)
    motions = _motions(rng, n_ticks, base)
    grid = engine.trace_grid(motions, L0)
    width = grid.times.size + grid.reactions.size
    # Past _GROUPED_MIN_ROWS_PER_TICK source rows per tick: the batch
    # takes the grouped kernel, each singleton the gathered one.
    ticks, gaps, speeds = _rows(rng, n_ticks, 20, width)
    constraints = (
        np.array([c1 for c1, _ in pairs]),
        np.array([c2 for _, c2 in pairs]),
    )

    batch = engine.solve_rows(
        grid, ticks, motions, gaps, speeds, constraints=constraints
    )
    assert len(batch) == len(pairs) * ticks.size
    singles = [
        engine.solve_rows(
            grid, ticks[r : r + 1], motions, gaps[r : r + 1],
            speeds[r : r + 1], constraints=constraints,
        )
        for r in range(ticks.size)
    ]
    for v, (c1, c2) in enumerate(pairs):
        dedicated = LatencyEngine(
            params=replace(base, c1=c1, c2=c2)
        ).solve_rows(grid, ticks, motions, gaps, speeds)
        assert batch[v * ticks.size : (v + 1) * ticks.size] == dedicated
        assert [single[v] for single in singles] == dedicated
