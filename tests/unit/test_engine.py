"""The batched latency engine — exact parity with the scalar reference.

The engine's contract is bit-identical ``LatencyResult`` values
(latency, check time AND the Section 4.2 ``iterations`` count) for the
EXACT strategy, so every test here compares against
:class:`LatencySearch` rather than against golden numbers.
"""

from dataclasses import replace

import numpy as np
import pytest

import repro.core.engine as engine_module
from repro.core.engine import _GROUPED_MIN_ROWS_PER_TICK, LatencyEngine
from repro.core.ego_profile import EgoMotion, ego_profile_arrays
from repro.core.latency import LatencySearch
from repro.core.parameters import ZhuyiParams
from repro.core.threat import FixedGapThreat

PARAMS = ZhuyiParams()


def ego(speed: float, accel: float = 0.0, params=PARAMS) -> EgoMotion:
    return EgoMotion.from_state(speed, accel, params)


def assert_same(scalar, batched):
    assert scalar.latency == batched.latency
    assert scalar.check_time == batched.check_time
    assert scalar.iterations == batched.iterations


class TestSolveParity:
    CASES = [
        # (speed, accel, gap, actor_speed, l0)
        (20.0, 0.0, 80.0, 10.0, 1.0 / 30.0),  # mid-grid answer
        (30.0, 0.0, 300.0, 25.0, 1.0 / 30.0),  # benign, l_max
        (30.0, -2.0, 5.0, 0.0, 1.0 / 30.0),  # unavoidable collision
        (0.0, 0.0, 10.0, 0.0, 1.0),  # stopped ego
        (15.0, 2.5, 40.0, 5.0, 0.5),  # accelerating ego
        (25.0, -4.0, 60.0, 20.0, 0.2),  # decelerating ego
        (10.0, 0.0, 0.0, 3.0, 1.0 / 30.0),  # zero gap
    ]

    @pytest.mark.parametrize("speed,accel,gap,actor_speed,l0", CASES)
    def test_fixed_gap_parity(
        self, speed, accel, gap, actor_speed, l0, solve_tick
    ):
        threat = FixedGapThreat(gap, actor_speed)
        scalar = LatencySearch(params=PARAMS).tolerable_latency(
            ego(speed, accel), threat, l0
        )
        (batched,) = solve_tick(
            LatencyEngine(params=PARAMS), ego(speed, accel), [threat], l0
        )
        assert_same(scalar, batched)

    def test_coarse_grid_parity(self, solve_tick):
        # A t_r that falls between tn_step multiples exercises the
        # union1d-insertion bookkeeping.
        params = ZhuyiParams(dl=0.1, l_min=0.1, tn_step=0.03, k=3)
        threat = FixedGapThreat(18.0, 2.0)
        motion = ego(14.0, 0.0, params)
        scalar = LatencySearch(params=params).tolerable_latency(
            motion, threat, 0.1
        )
        (batched,) = solve_tick(
            LatencyEngine(params=params), motion, [threat], 0.1
        )
        assert_same(scalar, batched)


class TestSolveBatch:
    """Every threat of one tick as rows of a one-tick grid."""

    def test_empty_batch(self, solve_tick):
        engine = LatencyEngine(params=PARAMS)
        assert solve_tick(engine, ego(10.0), [], 1.0) == []

    def test_batch_matches_singletons(self, solve_tick):
        threats = [
            FixedGapThreat(15.0, 0.0),
            FixedGapThreat(120.0, 20.0),
            FixedGapThreat(2.0, 0.0),
            FixedGapThreat(55.0, 8.0),
        ]
        engine = LatencyEngine(params=PARAMS)
        motion = ego(22.0, -1.0)
        batch = solve_tick(engine, motion, threats, 1.0 / 30.0)
        assert len(batch) == len(threats)
        for threat, result in zip(threats, batch):
            (single,) = solve_tick(engine, motion, [threat], 1.0 / 30.0)
            assert_same(single, result)

    def test_batch_matches_scalar_loop(self, solve_tick):
        threats = [FixedGapThreat(gap, 5.0) for gap in (3.0, 40.0, 400.0)]
        motion = ego(28.0)
        search = LatencySearch(params=PARAMS)
        batch = solve_tick(LatencyEngine(params=PARAMS), motion, threats, 0.1)
        for threat, result in zip(threats, batch):
            assert_same(search.tolerable_latency(motion, threat, 0.1), result)


class _ProbeThreat:
    """A base gap and actor speed, overridden at chosen instants.

    Instants match by float equality: the scalar scan grid and the
    engine's master grid hold the same ``i * tn_step`` values.
    """

    def __init__(self, gap, actor_speed, overrides):
        self.gap = gap
        self.actor_speed = actor_speed
        self.overrides = overrides

    def sample(self, times):
        times = np.asarray(times, dtype=float)
        gaps = np.full(times.shape, self.gap)
        speeds = np.full(times.shape, self.actor_speed)
        for instant, (gap, actor_speed) in self.overrides.items():
            at = times == instant
            gaps[at] = gap
            speeds[at] = actor_speed
        return gaps, speeds


class TestScanBoundary:
    """The first master instant past a candidate's scan never counts.

    Candidate ``s`` scans master indices ``[0, lengths[s])``; a longer
    candidate of the same wave widens the chunk past that, so index
    ``lengths[s]`` sits inside the array program but outside ``s``'s
    scan. With a negative actor speed, Eq 2 fails at every other
    instant, so the probes below control exactly which instants are
    candidates.
    """

    L0 = 1.0 / 30.0
    S = 2  # wave (1, 3): candidate 1 scans past candidate 2's end

    def setup_method(self):
        self.engine = LatencyEngine(params=PARAMS)
        self.motion = ego(20.0)
        grid = self.engine.trace_grid([self.motion], self.L0)
        self.grid = grid
        lengths = grid.lengths[0]
        assert (1, 3) in self.engine._waves(grid.latencies.size)
        assert lengths[self.S - 1] > lengths[self.S]
        #: The first master instant past candidate S's scan.
        self.past_end = float(grid.times[lengths[self.S]])
        self.dist = {}
        self.speed = {}
        for s in (self.S - 1, self.S):
            dist, speed, _, _ = ego_profile_arrays(
                [self.motion], grid.reactions[s : s + 1], grid.times
            )
            self.dist[s], self.speed[s] = dist[0, 0], speed[0, 0]

    def solve(self, threat, rows):
        expected = LatencySearch(params=PARAMS).tolerable_latency(
            self.motion, threat, self.L0
        )
        gaps, speeds = threat.sample(
            np.concatenate([self.grid.times, self.grid.reactions])
        )
        # One row takes the gathered kernel, 16 the tick-grouped one.
        results = self.engine.solve_rows(
            self.grid,
            np.zeros(rows, dtype=np.int64),
            [self.motion],
            np.tile(gaps, (rows, 1)),
            np.tile(speeds, (rows, 1)),
        )
        for result in results:
            assert_same(expected, result)
        return expected

    @pytest.mark.parametrize("rows", [1, 16])
    def test_violation_past_the_scan_keeps_the_candidate(self, rows):
        # Candidate S has come to rest at ``stopped``, where the longer
        # candidates still move: Eq 2 holds there for S alone. Right
        # after ``past_end`` Eq 2 holds for everyone, but the only
        # distance violation, at ``past_end``, comes first for the
        # candidates that scan it.
        times, lengths = self.grid.times, self.grid.lengths[0]
        stopped = times[np.flatnonzero(self.speed[self.S] == 0.0)[0]]
        assert self.speed[self.S - 1][times == stopped] > 0.1
        after = times[lengths[self.S] + 1 : lengths[self.S] + 5]
        assert after[-1] < times[lengths[self.S - 1] - 1]
        overrides = {float(stopped): (1e6, 0.0), self.past_end: (0.0, 0.0)}
        overrides.update({float(t): (1e6, 0.0) for t in after})
        result = self.solve(_ProbeThreat(1e6, -1.0, overrides), rows)
        assert result.latency == self.grid.latencies[self.S]
        assert result.check_time == stopped

    @pytest.mark.parametrize("rows", [1, 16])
    def test_candidate_past_the_scan_is_not_found(self, rows):
        # At ``past_end`` the ego of candidate S has travelled less than
        # the longer candidates': a gap between their stopping
        # distances makes it a distance violation for those and a
        # candidate instant for S, which does not scan it.
        at = self.grid.times == self.past_end
        d_short = float(self.dist[self.S][at][0])
        d_long = float(self.dist[self.S - 1][at][0])
        assert d_short < d_long
        gap = (d_short + d_long) / 2.0 / PARAMS.c1
        threat = _ProbeThreat(1e6, -1.0, {self.past_end: (gap, 100.0)})
        result = self.solve(threat, rows)
        assert result.latency is None


class TestSolveRows:
    def test_rows_match_per_tick_batches(self):
        engine = LatencyEngine(params=PARAMS)
        motions = [ego(30.0, 0.0), ego(12.0, -2.0), ego(0.0, 0.0), ego(20.0, 1.0)]
        threats = [
            FixedGapThreat(10.0, 0.0),
            FixedGapThreat(90.0, 15.0),
            FixedGapThreat(250.0, 30.0),
        ]
        l0 = 1.0 / 30.0
        grid = engine.trace_grid(motions, l0)
        rel_times = np.concatenate([grid.times, grid.reactions])
        tick_indices = []
        gaps = []
        speeds = []
        for tick in range(len(motions)):
            for threat in threats:
                g, s = threat.sample(rel_times)
                tick_indices.append(tick)
                gaps.append(g)
                speeds.append(s)
        rows = engine.solve_rows(
            grid,
            np.array(tick_indices),
            motions,
            np.stack(gaps),
            np.stack(speeds),
        )
        search = LatencySearch(params=PARAMS)
        for k, (tick, threat) in enumerate(
            (t, threat) for t in range(len(motions)) for threat in threats
        ):
            assert_same(
                search.tolerable_latency(motions[tick], threat, l0), rows[k]
            )

    def test_empty_rows(self):
        engine = LatencyEngine(params=PARAMS)
        grid = engine.trace_grid([ego(10.0)], 1.0)
        rel = np.concatenate([grid.times, grid.reactions])
        out = engine.solve_rows(
            grid,
            np.array([], dtype=int),
            [ego(10.0)],
            np.empty((0, rel.size)),
            np.empty((0, rel.size)),
        )
        assert out == []


class TestProfileCalls:
    """Ego profiles come from one routine call per chunk, never per tick.

    The gathered kernel builds every distinct tick of a row chunk in
    one :func:`ego_profile_arrays` call; the tick-grouped kernel builds
    a batch of tick groups per call.
    """

    L0 = 1.0 / 30.0
    THREATS = (FixedGapThreat(40.0, 5.0), FixedGapThreat(200.0, 25.0))

    def solve(self, monkeypatch, copies, chunk_rows=None):
        motions = [ego(10.0 + 2.0 * k, 0.5 * (k % 3 - 1)) for k in range(12)]
        engine = LatencyEngine(params=PARAMS)
        grid = engine.trace_grid(motions, self.L0)
        rel_times = np.concatenate([grid.times, grid.reactions])
        tick_threats = [
            (tick, threat)
            for tick in range(len(motions))
            for threat in self.THREATS
            for _ in range(copies)
        ]
        samples = [threat.sample(rel_times) for _, threat in tick_threats]
        ticks = np.array([tick for tick, _ in tick_threats])
        if chunk_rows is not None:
            wave_cap = int(grid.lengths[:, 0].max())
            monkeypatch.setattr(
                engine_module, "_ROWS_CHUNK_ELEMENTS", chunk_rows * wave_cap
            )
        calls = []

        def spy(egos, reactions, times):
            calls.append((len(egos), len(reactions)))
            return ego_profile_arrays(egos, reactions, times)

        monkeypatch.setattr(engine_module, "ego_profile_arrays", spy)
        results = engine.solve_rows(
            grid,
            ticks,
            motions,
            np.stack([gaps for gaps, _ in samples]),
            np.stack([speeds for _, speeds in samples]),
        )
        search = LatencySearch(params=PARAMS)
        for (tick, threat), result in zip(tick_threats, results):
            assert_same(
                search.tolerable_latency(motions[tick], threat, self.L0),
                result,
            )
        return ticks, calls

    def test_gathered_kernel_one_call_per_chunk(self, monkeypatch):
        ticks, calls = self.solve(monkeypatch, copies=1, chunk_rows=5)
        # Wave 0 (one candidate) takes every row in chunks of 5 rows;
        # each chunk's call covers the chunk's distinct ticks.
        expected = [
            np.unique(ticks[begin : begin + 5]).size
            for begin in range(0, ticks.size, 5)
        ]
        assert [n for n, s in calls if s == 1] == expected
        assert len(calls) > len(expected)  # later waves ran too

    def test_grouped_kernel_one_call_per_wave(self, monkeypatch):
        _, calls = self.solve(monkeypatch, copies=_GROUPED_MIN_ROWS_PER_TICK)
        # Every wave is tick-dense; one call builds all of its groups.
        assert calls[0] == (12, 1)
        candidates = [s for _, s in calls]
        assert len(set(candidates)) == len(candidates)


class TestVariantAxis:
    """``(V,)`` constraint vectors over untiled rows == dedicated engines.

    Each case runs once as a tick-dense batch (every row repeated
    ``_GROUPED_MIN_ROWS_PER_TICK`` times: the grouped kernel) and once
    row by row (the gathered kernel); every variant's answers must
    equal an engine carrying its c1/c2, bit for bit.
    """

    L0 = 1.0 / 30.0
    #: c1 1.0 answers at l_max (wave 0), c1 0.5 in the last wave.
    SPLIT = FixedGapThreat(150.0, 10.0)
    #: Unavoidable under every pair drawn here.
    DOOMED = FixedGapThreat(30.0, 0.0)

    def rows(self, motions, tick_threats):
        grid = LatencyEngine(params=PARAMS).trace_grid(motions, self.L0)
        rel_times = np.concatenate([grid.times, grid.reactions])
        samples = [threat.sample(rel_times) for _, threat in tick_threats]
        return (
            grid,
            np.array([tick for tick, _ in tick_threats]),
            np.stack([gaps for gaps, _ in samples]),
            np.stack([speeds for _, speeds in samples]),
        )

    def check(self, monkeypatch, motions, tick_threats, pairs, dense):
        grid, ticks, gaps, speeds = self.rows(motions, tick_threats)
        if dense:
            copies = _GROUPED_MIN_ROWS_PER_TICK
            ticks = np.repeat(ticks, copies)
            gaps = np.repeat(gaps, copies, axis=0)
            speeds = np.repeat(speeds, copies, axis=0)
        kernels = []
        for name in ("_solve_rows_grouped", "_solve_rows_slice"):
            kernel = getattr(LatencyEngine, name)

            def spy(self, *args, _kernel=kernel, _name=name, **kwargs):
                kernels.append(_name)
                return _kernel(self, *args, **kwargs)

            monkeypatch.setattr(LatencyEngine, name, spy)

        engine = LatencyEngine(params=PARAMS)
        c1s = np.array([c1 for c1, _ in pairs])
        c2s = np.array([c2 for _, c2 in pairs])
        if dense:
            solved = [
                engine.solve_rows(
                    grid, ticks, motions, gaps, speeds, constraints=(c1s, c2s)
                )
            ]
        else:
            solved = [
                engine.solve_rows(
                    grid, ticks[r : r + 1], motions, gaps[r : r + 1],
                    speeds[r : r + 1], constraints=(c1s, c2s),
                )
                for r in range(ticks.size)
            ]
        assert kernels[0] == (
            "_solve_rows_grouped" if dense else "_solve_rows_slice"
        )
        rows = ticks.size // len(solved)
        dedicated = []
        for v, (c1, c2) in enumerate(pairs):
            alone = LatencyEngine(
                params=replace(PARAMS, c1=c1, c2=c2)
            ).solve_rows(grid, ticks, motions, gaps, speeds)
            axis = [
                result
                for batch in solved
                for result in batch[v * rows : (v + 1) * rows]
            ]
            assert len(axis) == len(alone)
            for expected, result in zip(alone, axis):
                assert_same(expected, result)
            dedicated.append(alone)
        return grid, dedicated

    @pytest.mark.parametrize("dense", [True, False])
    def test_variants_resolve_in_different_waves(self, monkeypatch, dense):
        motions = [ego(20.0), ego(12.0, -1.0)]
        grid, (loose, tight) = self.check(
            monkeypatch,
            motions,
            [(0, self.SPLIT), (1, FixedGapThreat(90.0, 15.0))],
            [(1.0, 0.9), (0.5, 0.9)],
            dense,
        )
        waves = LatencyEngine._waves(grid.latencies.size)

        def wave(result):
            index = int(np.flatnonzero(grid.latencies == result.latency)[0])
            return next(w for w, (lo, hi) in enumerate(waves) if lo <= index < hi)

        assert wave(loose[0]) == 0
        assert wave(tight[0]) == len(waves) - 1

    @pytest.mark.parametrize("dense", [True, False])
    def test_row_no_variant_resolves(self, monkeypatch, dense):
        motions = [ego(20.0), ego(12.0, -1.0)]
        _, dedicated = self.check(
            monkeypatch,
            motions,
            [(0, self.DOOMED), (1, self.SPLIT)],
            [(1.0, 1.0), (0.7, 0.7), (0.85, 1.0)],
            dense,
        )
        assert all(alone[0].latency is None for alone in dedicated)
        assert all(alone[-1].latency is not None for alone in dedicated)

    @pytest.mark.parametrize("dense", [True, False])
    def test_one_tick_grid(self, monkeypatch, dense):
        self.check(
            monkeypatch,
            [ego(20.0)],
            [(0, self.SPLIT), (0, self.DOOMED), (0, FixedGapThreat(80.0, 10.0))],
            [(0.9, 0.9), (1.0, 0.8), (0.7, 1.0), (0.5, 0.5)],
            dense,
        )

    @pytest.mark.parametrize("dense", [True, False])
    def test_default_is_the_params_pair(self, monkeypatch, dense):
        motions = [ego(20.0), ego(12.0, -1.0)]
        tick_threats = [(0, self.SPLIT), (1, FixedGapThreat(80.0, 10.0))]
        self.check(
            monkeypatch, motions, tick_threats, [(PARAMS.c1, PARAMS.c2)], dense
        )
        grid, ticks, gaps, speeds = self.rows(motions, tick_threats)
        default = LatencyEngine(params=PARAMS).solve_rows(
            grid, ticks, motions, gaps, speeds
        )
        search = LatencySearch(params=PARAMS)
        assert len(default) == len(tick_threats)
        for (tick, threat), result in zip(tick_threats, default):
            assert_same(
                search.tolerable_latency(motions[tick], threat, self.L0),
                result,
            )

    def test_kernel_choice_counts_source_rows(self, monkeypatch):
        # Below the threshold in source rows but above it in (variant,
        # row) pairs: the wave stays on the gathered kernel.
        motions = [ego(20.0)]
        rows = _GROUPED_MIN_ROWS_PER_TICK // 2
        grid, ticks, gaps, speeds = self.rows(
            motions, [(0, FixedGapThreat(150.0 + k, 10.0)) for k in range(rows)]
        )
        grouped = []
        kernel = LatencyEngine._solve_rows_grouped

        def spy(self, *args, **kwargs):
            grouped.append(True)
            return kernel(self, *args, **kwargs)

        monkeypatch.setattr(LatencyEngine, "_solve_rows_grouped", spy)
        pairs = np.full(4, 0.9), np.full(4, 0.9)
        out = LatencyEngine(params=PARAMS).solve_rows(
            grid, ticks, motions, gaps, speeds, constraints=pairs
        )
        assert len(out) == 4 * rows
        assert not grouped

    def test_constraint_vectors_must_match(self):
        grid, ticks, gaps, speeds = self.rows([ego(20.0)], [(0, self.SPLIT)])
        engine = LatencyEngine(params=PARAMS)
        for constraints in (
            (np.array([0.9, 0.8]), np.array([0.9])),
            (np.array([]), np.array([])),
            (np.full((2, 1), 0.9), np.full((2, 1), 0.9)),
        ):
            with pytest.raises(ValueError, match=r"\(V,\) vectors"):
                engine.solve_rows(
                    grid, ticks, [ego(20.0)], gaps, speeds,
                    constraints=constraints,
                )


class TestSolveRowsWidthContract:
    """Row arrays must match the grid, or ``solve_rows`` names the problem.

    A row carries ``T' + L`` columns: a master prefix ``T'`` between the
    longest readable prefix of its ticks and ``grid.times.size``, then
    the ``L`` reaction columns.
    """

    def setup_method(self):
        self.engine = LatencyEngine(params=PARAMS)
        # A fast and a slow ego: the slow tick reads a shorter prefix.
        self.motions = [ego(30.0), ego(5.0)]
        self.grid = self.engine.trace_grid(self.motions, 1.0 / 30.0)
        self.n_times = self.grid.times.size
        self.n_reactions = self.grid.reactions.size

    def rows(self, ticks, width):
        n = len(ticks)
        return (
            np.asarray(ticks),
            np.full((n, width + self.n_reactions), 50.0),
            np.full((n, width + self.n_reactions), 5.0),
        )

    def solve(self, ticks, gaps, speeds):
        return self.engine.solve_rows(
            self.grid, ticks, self.motions, gaps, speeds
        )

    def test_mismatched_gap_and_speed_shapes_raise(self):
        ticks, gaps, speeds = self.rows([0, 1], self.n_times)
        with pytest.raises(ValueError, match="gaps and aspeeds must share"):
            self.solve(ticks, gaps, speeds[:, :-1])

    def test_tick_indices_must_be_one_per_row(self):
        ticks, gaps, speeds = self.rows([0, 1], self.n_times)
        with pytest.raises(ValueError, match=r"tick_indices must be an \(R,\)"):
            self.solve(ticks[:1], gaps, speeds)
        with pytest.raises(ValueError, match=r"tick_indices must be an \(R,\)"):
            self.solve(ticks[:, None], gaps, speeds)

    def test_width_below_the_readable_prefix_raises(self):
        readable = int(self.grid.lengths[1].max())
        assert readable < self.n_times
        ticks, gaps, speeds = self.rows([1], readable - 1)
        with pytest.raises(ValueError, match="below the longest readable"):
            self.solve(ticks, gaps, speeds)
        # The fast tick reads the whole master grid.
        ticks, gaps, speeds = self.rows([0, 1], readable)
        with pytest.raises(ValueError, match="below the longest readable"):
            self.solve(ticks, gaps, speeds)

    def test_width_above_the_master_grid_raises(self):
        ticks, gaps, speeds = self.rows([0, 1], self.n_times + 1)
        with pytest.raises(ValueError, match="above the master grid"):
            self.solve(ticks, gaps, speeds)
