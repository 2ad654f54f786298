"""Batched tolerable-latency kernel — the whole latency grid at once.

The scalar reference (:class:`repro.core.latency.LatencySearch`, EXACT
strategy) answers "is candidate latency ``l`` safe?" one ``(actor,
candidate)`` pair at a time: for each of the ``L`` grid latencies it
builds a fresh ``t_n`` scan grid, re-derives the ego's coast/brake
profile, re-samples the threat and scans for a feasible check time.
Offline evaluation multiplies that by every actor at every trace tick —
the dominant interpreter overhead of a campaign.

This module replaces the inner loops with one array program over rows,
where a row is one (tick, threat) pair — any number of ticks, actors
or predicted futures solved together, each under a ``(V,)`` axis of
parameter variants:

* Latency candidates only shift the reaction time ``t_r``, so the ego
  distance/speed profiles of a row chunk are one ``(ticks, S, T)``
  computation over a shared master time grid
  (:func:`repro.core.ego_profile.ego_profile_arrays`): one call per
  chunk builds every distinct tick's profiles in bounded blocks,
  evaluating the braking terms only past the wave's earliest ``t_r``.
* Each row's threat is sampled once over the prefix of that master
  grid its tick reads (plus the ``L`` reaction instants) instead of
  once per candidate.
* Eq 1/2 feasibility and the per-candidate ``t_n >= t_r`` windows
  evaluate simultaneously as ``(V, R, S, T)`` boolean arrays over the
  ``V`` (c1, c2) constraint pairs and the ``S`` candidates of a wave
  (see :meth:`LatencyEngine._waves`): the variants only scale the
  threat samples, so each row's samples and ego profile are read once
  and broadcast over them. One short-circuiting arg-reduction per
  (variant, row, candidate) finds the first violation and the first
  candidate instant, and comparing them with that candidate's scan
  length stands in for a prefix mask; the largest feasible latency
  falls out of a single argmax per (variant, row).

Exact-parity contract: results are **bit-identical** to the scalar
EXACT search — ``latency``, ``check_time`` *and* the ``iterations``
count feeding the Section 4.2 compute model. Three details make that
subtle, and each is reproduced here rather than approximated:

* The scalar scan grid for candidate ``l`` is
  ``arange(0, horizon_l + tn_step, tn_step)``; with a shared step each
  candidate's grid is a bit-exact *prefix* of the master grid, so one
  master ``arange`` plus per-candidate prefix lengths replays every
  scalar grid exactly.
* The search domain opens at ``t_n = t_r``, which need not be a grid
  multiple; the scalar search inserts it via ``union1d``. The kernel
  evaluates the ``t_r`` sample separately and merges its index
  arithmetic (insertion position, duplicate-on-grid detection) so scan
  positions — and therefore ``iterations`` — match the merged array's.
* The strict semantics kill every candidate ``t_n`` at or after the
  first distance violation anywhere in the scanned prefix; in index
  form that is "feasible iff the first candidate index precedes the
  first violation index", computed per (row, candidate) pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.ego_profile import (
    _PROFILE_BLOCK_ELEMENTS,
    EgoMotion,
    ego_profile_arrays,
)
from repro.core.latency import _EPS, LatencyResult
from repro.core.parameters import ZhuyiParams
from repro.dynamics.longitudinal import travel_arrays

#: Sentinel index: "no such position on the merged scan grid". Half the
#: int64 range so the +1 merge shifts can never overflow it.
_NO_INDEX = np.iinfo(np.int64).max // 2

#: Per-chunk element budget for :meth:`LatencyEngine.solve_rows`, counted
#: over the ``(V, R, S, T)`` comparison arrays. A cache-locality
#: compromise, settled by sweeping campaign workloads: larger chunks
#: amortize the per-chunk array calls (the profile call, the scan's
#: reductions) over more rows, but once the temporaries outgrow the
#: last-level cache every broadcasted comparison turns memory-bound —
#: cross-trace row blocks big enough to saturate the old 8M cap ran
#: ~1.5x slower than at this setting. With block profiles, 500k
#: elements ran 1-6% and 125k 17-21% slower on ``variants_warm``
#: (seeds 0-2, 2-vCPU x86-64).
_ROWS_CHUNK_ELEMENTS = 2_000_000

#: Source rows per distinct tick at which :meth:`LatencyEngine.solve_rows`
#: switches a wave to the tick-resident grouped kernel. The count is of
#: rows, not (variant, row) pairs: the variants of a row already share
#: its gathered profile. Offline batches sit near the actor count (~2-8
#: rows per tick), where the gathered cross-tick program wins; the
#: online replay stacks one row per (actor, prediction hypothesis), and
#: its tick-dense waves are where re-reading one cache-hot (S, T)
#: profile per tick beats materializing per-row copies.
_GROUPED_MIN_ROWS_PER_TICK = 16


def _first(mask: np.ndarray, value: bool, lengths: np.ndarray) -> np.ndarray:
    """Index of the first ``value`` along the last axis of ``mask``.

    ``_NO_INDEX`` where there is none before ``lengths`` (broadcast
    against the leading axes). One short-circuiting ``argmax`` (or
    ``argmin`` for False) finds the first index; reading the mask back
    there tells a real hit from the all-other fallback index 0.
    """
    first = mask.argmax(axis=-1) if value else mask.argmin(axis=-1)
    hit = np.take_along_axis(mask, first[..., None], axis=-1)[..., 0]
    return np.where((hit == value) & (first < lengths), first, _NO_INDEX)


@dataclass(frozen=True, eq=False)
class SolvedRows(Sequence[LatencyResult]):
    """:meth:`LatencyEngine.solve_rows` answers, one column per field.

    One entry per (variant, row) pair, variant-major: entry
    ``v * R + r`` is row ``r`` under constraint pair ``v``. Entry
    ``k``'s :class:`LatencyResult` is built only when it is indexed or
    iterated; the row solver's own readers take the columns. Compares
    equal to, and concatenates like, a list of the same results.

    Attributes:
        latency: (V * R,) tolerable latencies; NaN where no candidate
            is feasible (a ``None`` result).
        check_time: (V * R,) check times; NaN where ``latency`` is.
        iterations: (V * R,) constraint evaluations per entry.
    """

    latency: np.ndarray
    check_time: np.ndarray
    iterations: np.ndarray

    def __len__(self) -> int:
        return self.latency.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return SolvedRows(
                self.latency[index],
                self.check_time[index],
                self.iterations[index],
            )
        if np.isnan(self.latency[index]):
            return LatencyResult(
                latency=None,
                check_time=None,
                iterations=int(self.iterations[index]),
            )
        return LatencyResult(
            latency=float(self.latency[index]),
            check_time=float(self.check_time[index]),
            iterations=int(self.iterations[index]),
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, (SolvedRows, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __add__(self, other) -> list[LatencyResult]:
        if isinstance(other, (SolvedRows, list, tuple)):
            return list(self) + list(other)
        return NotImplemented


@dataclass(frozen=True)
class TraceGrid:
    """Candidate/time bookkeeping for every tick at once.

    The latency candidates and their reaction times depend only on the
    Zhuyi constants and ``l0`` — never on the ego — so they are shared
    by every tick; the per-tick quantities (scan horizons, prefix
    lengths, ``t_r`` insertions) vectorize over ticks. ``times`` is one
    master grid: every tick's scan grid is a bit-exact prefix of it, so
    per-tick arrays never need rebuilding. A tick reads at most
    ``lengths[n].max()`` master instants, so rows for a set of ticks
    need only the prefix ``times[:T']``, ``T'`` being their
    :meth:`readable_prefix` (stacked traces with shorter horizons than
    the grid's longest read less than ``T``); :meth:`LatencyEngine.
    solve_rows` takes rows sampled over ``times[:T']`` plus the ``L``
    reactions, ``T' + L`` columns.
    """

    latencies: np.ndarray  #: (L,) candidate latencies, descending
    reactions: np.ndarray  #: (L,) reaction time t_r per candidate
    times: np.ndarray  #: (T,) master scan grid
    insert_at: np.ndarray  #: (L,) sorted position of t_r on the master grid
    horizons: np.ndarray  #: (N, L) per-tick scan horizon of each candidate
    lengths: np.ndarray  #: (N, L) per-tick candidate prefix lengths
    inserted: np.ndarray  #: (N, L) bool: t_r occupies its own merged slot
    sizes: np.ndarray  #: (N, L) merged scan size (length + inserted)

    def readable_prefix(self, ticks: np.ndarray) -> int:
        """``T'``: the master instants the longest scan of ``ticks`` reads."""
        return min(int(self.lengths[ticks].max()), self.times.size)


@dataclass
class LatencyEngine:
    """Batched tolerable-latency solver.

    Drop-in equivalent of the scalar EXACT :class:`LatencySearch` —
    same :class:`LatencyResult`, bit-identical values — evaluated as
    one vectorized program over the full latency grid and over a whole
    batch of (tick, threat) rows: :meth:`trace_grid` builds a tick
    axis's candidate bookkeeping and :meth:`solve_rows` solves rows
    sampled on it. A single tick is the one-tick grid.

    Attributes:
        params: the Zhuyi constants.
    """

    params: ZhuyiParams = field(default_factory=ZhuyiParams)

    @staticmethod
    def _waves(n_latencies: int) -> list[tuple[int, int]]:
        """Doubling partition of the candidate grid: (0,1), (1,3), ...

        The descending grid is solved lazily in these waves: the l_max
        candidate alone first — most actors of a tick are benign and
        resolve right there, and eagerly evaluating the other L-1
        candidates for them would cost more than the scalar search's
        early exit — then geometrically growing slices for the
        survivors. The waves partition the grid (no row evaluates
        twice), so an actor whose answer sits at depth k pays at most
        ~2k rows and an unavoidable collision pays exactly L, while the
        scalar loop grinds k (or L) full scans one at a time.
        """
        waves = []
        lo, width = 0, 1
        while lo < n_latencies:
            waves.append((lo, min(lo + width, n_latencies)))
            lo += width
            width *= 2
        return waves

    def trace_grid(
        self, ego_motions: Sequence[EgoMotion], l0: float
    ) -> TraceGrid:
        """Candidate/time bookkeeping for every tick of a trace at once.

        The reactions are tick-independent; the per-tick horizons (and
        the prefix lengths / ``t_r`` insertions they induce) come from
        one :func:`repro.dynamics.longitudinal.travel_arrays` call over
        every (tick, reaction), equal bit for bit to the scalar
        :meth:`EgoMotion.stop_time_after` the scalar search calls one
        candidate at a time.

        Cross-trace stacking: ``ego_motions`` may concatenate the ticks
        of *many* traces (sharing ``l0``) along the tick axis — the
        campaign super-cell path does exactly that. Every per-tick
        quantity above is a pure function of that tick's ego state, and
        the master ``times`` grid only grows a longer tail (``arange``
        values are ``i * step`` regardless of the stop), so each tick's
        prefix — and hence every :meth:`solve_rows` answer — is
        bit-identical whether its trace was gridded alone or stacked.
        """
        params = self.params
        step = params.tn_step
        latency_list = params.latency_grid()
        reactions = np.array(
            [
                latency + params.confirmation_delay(latency, l0)
                for latency in latency_list
            ]
        )

        # stop_time_after(r) + horizon_margin for every (tick, reaction):
        # r + v_tr / a_b, with v_tr from the one clamped-coast kernel,
        # bit for bit the scalar call's.
        v0 = np.array([ego.speed for ego in ego_motions], dtype=float)
        a0 = np.array([ego.accel for ego in ego_motions], dtype=float)
        a_b = np.array([ego.braking_decel for ego in ego_motions])
        _, v_tr = travel_arrays(v0[:, None], a0[:, None], reactions)
        horizons = reactions + v_tr / a_b[:, None] + params.horizon_margin

        lengths = np.ceil((horizons + step) / step).astype(np.int64)
        times = np.arange(0.0, float(horizons.max()) + step, step)
        insert_at = np.searchsorted(times, reactions)
        on_grid = times[np.minimum(insert_at, times.size - 1)] == reactions
        inserted = (reactions[None, :] <= horizons) & ~on_grid[None, :]
        return TraceGrid(
            latencies=np.array(latency_list),
            reactions=reactions,
            times=times,
            insert_at=insert_at.astype(np.int64),
            horizons=horizons,
            lengths=lengths,
            inserted=inserted,
            sizes=lengths + inserted,
        )

    def solve_rows(
        self,
        grid: TraceGrid,
        tick_indices: np.ndarray,
        ego_motions: Sequence[EgoMotion],
        gaps: np.ndarray,
        aspeeds: np.ndarray,
        constraints: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> SolvedRows:
        """Solve a batch of (tick, actor) rows spanning many ticks.

        Each row pairs a tick index with that actor's threat samples
        over ``concatenate([grid.times[:T'], grid.reactions])`` (shape
        ``(R, T' + L)``). The master width ``T'`` may be anything from
        the longest readable prefix of the rows' ticks
        (:meth:`TraceGrid.readable_prefix`) up to the whole master grid
        ``T = grid.times.size``: every column past a
        row's ``grid.lengths`` entry is masked out, so trimmed and
        full-width rows solve identically. The reaction columns are
        the last ``L``. Rows need not be unique per (tick, actor): the
        online replay feeds one row per (tick, actor, prediction
        hypothesis), each solved independently against its tick's ego
        profile, and the cross-trace campaign path feeds one row per
        (trace, tick, actor), with ``tick_indices`` offset into a
        stacked multi-trace :meth:`trace_grid`.

        Every row is solved under each of ``V`` constraint pairs, the
        variant axis of the campaign block. Candidates are solved in
        :meth:`_waves`, every row with a still-unresolved variant in
        one array program over all ``V`` variants. A (row, variant)
        pair takes the first wave in which one of its candidates is
        feasible — where a solve under that variant alone stops — so
        its ``latency``, ``check_time`` and ``iterations`` are that
        solve's; later waves recompute resolved pairs alongside their
        row's open ones, and those answers are dropped.

        Each wave picks its kernel from the source rows per distinct
        tick: sparse waves gather per-row ego profiles
        (:meth:`_solve_rows_slice`), dense ones broadcast each tick's
        profile against all of its rows (:meth:`_solve_rows_grouped`).
        Both run the same feasibility program (:meth:`_scan`), so the
        choice only moves the clock.

        Args:
            grid: the :meth:`trace_grid` for these ticks.
            tick_indices: (R,) tick index of each row.
            ego_motions: per-tick ego states (trace-aligned).
            gaps / aspeeds: (R, T' + L) threat samples per row.
            constraints: optional ``(c1s, c2s)`` vectors of shape
                ``(V,)``, replacing ``params.c1``/``params.c2`` (the
                default is the one pair ``V = 1`` they make). Every
                other constant (the latency grid, ``k``, the ego
                profile, gating) still comes from ``params``, so only
                variants differing in nothing but c1/c2 may share a
                call. Each threshold is ``c1s[v] * gap + eps``, the
                element arithmetic of an engine carrying that
                variant's c1/c2, so every answer is bit-identical to
                that engine's.

        Returns:
            The answers as :class:`SolvedRows` columns of ``V * R``
            entries, variant-major (entry ``v * R + r`` is row ``r``
            under pair ``v``): a NaN latency means no feasible
            candidate. Indexing or iterating the result yields one
            :class:`LatencyResult` per entry.

        Raises:
            ValueError: ``gaps`` and ``aspeeds`` are not one shared 2-D
                shape, ``tick_indices`` is not ``(R,)``, the constraint
                vectors are not one shared non-empty ``(V,)`` shape, or
                the master width is below the rows' longest readable
                prefix or above ``grid.times.size``.
        """
        tick_indices = np.asarray(tick_indices)
        if gaps.shape != aspeeds.shape or gaps.ndim != 2:
            raise ValueError(
                "gaps and aspeeds must share one (R, T' + L) shape, got "
                f"{gaps.shape} and {aspeeds.shape}"
            )
        n_rows = gaps.shape[0]
        if tick_indices.shape != (n_rows,):
            raise ValueError(
                f"tick_indices must be an (R,) array for {n_rows} rows, "
                f"got shape {tick_indices.shape}"
            )
        if constraints is None:
            c1s = np.array([self.params.c1], dtype=float)
            c2s = np.array([self.params.c2], dtype=float)
        else:
            c1s = np.asarray(constraints[0], dtype=float)
            c2s = np.asarray(constraints[1], dtype=float)
            if c1s.ndim != 1 or c1s.shape != c2s.shape or not c1s.size:
                raise ValueError(
                    "constraints must be two non-empty (V,) vectors, got "
                    f"shapes {c1s.shape} and {c2s.shape}"
                )
        n_variants = c1s.size
        if n_rows == 0:
            return SolvedRows(
                np.empty(0), np.empty(0), np.empty(0, dtype=np.int64)
            )
        width = gaps.shape[1] - grid.reactions.size
        readable = grid.readable_prefix(tick_indices)
        if width < readable:
            raise ValueError(
                f"rows carry {width} master columns, below the longest "
                f"readable prefix {readable} of their ticks"
            )
        if width > grid.times.size:
            raise ValueError(
                f"rows carry {width} master columns, above the master "
                f"grid's {grid.times.size}"
            )
        # Per-tick cumulative merged scan sizes — the iterations charged
        # for missing every candidate before a hit.
        miss_prefix = np.concatenate(
            [
                np.zeros((grid.sizes.shape[0], 1), dtype=np.int64),
                np.cumsum(grid.sizes, axis=1),
            ],
            axis=1,
        )

        # Pairs no wave resolves keep NaN and are charged every scan.
        shape = (n_variants, n_rows)
        latency = np.full(shape, np.nan)
        check_time = np.full(shape, np.nan)
        iterations = np.tile(miss_prefix[tick_indices, -1], (n_variants, 1))
        open_pairs = np.ones(shape, dtype=bool)
        active = np.arange(n_rows)
        for lo, hi in self._waves(grid.latencies.size):
            if active.size == 0:
                break
            dense = active.size >= _GROUPED_MIN_ROWS_PER_TICK * np.unique(
                tick_indices[active]
            ).size
            kernel = self._solve_rows_grouped if dense else self._solve_rows_slice
            found, hit, check_times, scanned = kernel(
                grid,
                lo,
                hi,
                active,
                tick_indices,
                ego_motions,
                gaps,
                aspeeds,
                c1s,
                c2s,
            )
            # Only still-open pairs take this wave's answer.
            new = found & open_pairs[:, active]
            variant, pair = np.nonzero(new)
            rows = active[pair]
            h = lo + hit[new]
            latency[variant, rows] = grid.latencies[h]
            check_time[variant, rows] = check_times[new]
            iterations[variant, rows] = (
                miss_prefix[tick_indices[rows], h] + scanned[new]
            )
            open_pairs[variant, rows] = False
            active = active[open_pairs[:, active].any(axis=0)]
        return SolvedRows(
            latency.reshape(-1), check_time.reshape(-1), iterations.reshape(-1)
        )

    def _solve_rows_grouped(
        self,
        grid: TraceGrid,
        lo: int,
        hi: int,
        rows: np.ndarray,
        tick_indices: np.ndarray,
        ego_motions: Sequence[EgoMotion],
        gaps: np.ndarray,
        aspeeds: np.ndarray,
        c1s: np.ndarray,
        c2s: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Candidates ``[lo, hi)`` for tick-dense row batches.

        The tick-resident kernel: rows are grouped by tick and each
        group runs :meth:`_scan` by broadcasting against its tick's own
        ``(S, T)`` ego profile — trimmed to that tick's longest
        candidate scan — instead of gathering per-row ``(R, S, T)``
        profile copies. It wins when many rows (actor x hypothesis
        stacks) share each distinct tick. The groups' profiles come
        from one :func:`ego_profile_arrays` call per batch of groups,
        each batch one block of that routine. ``gaps``/``aspeeds`` are
        the full row arrays of :meth:`solve_rows` (a ``T'``-column
        master prefix, then the ``L`` reaction columns), ``c1s``/``c2s``
        its ``(V,)`` constraint vectors; ``rows`` selects the
        still-active subset. Returns ``(found, hit, check_times,
        scanned)``, each ``(V, rows.size)``.
        """
        first_reaction = gaps.shape[1] - grid.reactions.size
        reactions = grid.reactions[lo:hi]
        answers = (c1s.size, rows.size)
        found = np.zeros(answers, dtype=bool)
        hit = np.zeros(answers, dtype=np.int64)
        check_times = np.zeros(answers, dtype=float)
        scanned = np.zeros(answers, dtype=np.int64)

        ticks = tick_indices[rows]
        order = np.argsort(ticks, kind="stable")
        sorted_ticks = ticks[order]
        starts = np.flatnonzero(
            np.concatenate(([True], sorted_ticks[1:] != sorted_ticks[:-1]))
        )
        bounds = np.append(starts, sorted_ticks.size)
        group_ticks = sorted_ticks[starts]
        t_caps = grid.lengths[group_ticks, lo:hi].max(axis=1)
        # The groups' profiles come from one call per batch of groups,
        # each batch one block of the profile routine.
        batch = max(
            1, _PROFILE_BLOCK_ELEMENTS // ((hi - lo) * int(t_caps.max()))
        )
        for g in range(starts.size):
            n = int(group_ticks[g])
            lengths = grid.lengths[n, lo:hi]
            t_cap = int(t_caps[g])
            times = grid.times[:t_cap]
            if g % batch == 0:
                batch_ticks = group_ticks[g : g + batch]
                dist, speed, dist_r, speed_r = ego_profile_arrays(
                    [ego_motions[m] for m in batch_ticks.tolist()],
                    reactions,
                    grid.times[: int(t_caps[g : g + batch].max())],
                )
            i = slice(g % batch, g % batch + 1)
            profiles = (
                dist[i, :, :t_cap],
                speed[i, :, :t_cap],
                dist_r[i],
                speed_r[i],
            )
            ins = grid.inserted[n, lo:hi]

            group = order[bounds[g] : bounds[g + 1]]
            # Bound the (V, G, S, T) workspace for pathologically wide
            # groups; ordinary stacks fit in one pass.
            step = max(
                1, int(_ROWS_CHUNK_ELEMENTS / (c1s.size * (hi - lo) * t_cap))
            )
            for begin in range(0, group.size, step):
                sel = group[begin : begin + step]
                r = rows[sel]
                (
                    found[:, sel],
                    hit[:, sel],
                    check_times[:, sel],
                    scanned[:, sel],
                ) = self._scan(
                    grid,
                    lo,
                    hi,
                    times,
                    profiles,
                    slice(None),
                    gaps[r, :t_cap],
                    aspeeds[r, :t_cap],
                    gaps[r, first_reaction + lo : first_reaction + hi],
                    aspeeds[r, first_reaction + lo : first_reaction + hi],
                    c1s,
                    c2s,
                    lengths[None],
                    ins[None],
                )
        return found, hit, check_times, scanned

    def _solve_rows_slice(
        self,
        grid: TraceGrid,
        lo: int,
        hi: int,
        rows: np.ndarray,
        tick_indices: np.ndarray,
        ego_motions: Sequence[EgoMotion],
        gaps: np.ndarray,
        aspeeds: np.ndarray,
        c1s: np.ndarray,
        c2s: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Candidates ``[lo, hi)`` for rows spanning many ticks.

        The gathered kernel: per chunk of rows, one
        :func:`ego_profile_arrays` call builds the profiles of the
        chunk's distinct ticks, which are gathered to rows, and
        :meth:`_scan` runs as one ``(V, R, S, T)`` batch. Chunks cap
        each program's cache working set at ``_ROWS_CHUNK_ELEMENTS``,
        sized from the variant count and the rows' longest candidate
        scan rather than the master axis; each chunk's time axis is
        then trimmed to the longest prefix its (row, candidate) scans
        admit. No index past a row's ``lengths`` counts, so the answers
        are identical and the program never pays for the master grid's
        tail — which, on stacked multi-trace grids, belongs to *other*
        traces' horizons. A chunk of consecutive rows (every chunk of
        the first wave) reads its row arrays as views, not gathered
        copies. Same arguments and returns as
        :meth:`_solve_rows_grouped`.
        """
        first_reaction = gaps.shape[1] - grid.reactions.size
        reactions = grid.reactions[lo:hi]
        answers = (c1s.size, rows.size)
        found = np.zeros(answers, dtype=bool)
        hit = np.zeros(answers, dtype=np.int64)
        check_times = np.zeros(answers, dtype=float)
        scanned = np.zeros(answers, dtype=np.int64)

        wave_cap = int(grid.lengths[tick_indices[rows], lo:hi].max())
        chunk = max(
            1,
            int(
                _ROWS_CHUNK_ELEMENTS
                / (c1s.size * (hi - lo) * max(1, wave_cap))
            ),
        )
        for begin in range(0, rows.size, chunk):
            sel = slice(begin, begin + chunk)
            r = rows[sel]
            if r[-1] - r[0] == r.size - 1:
                # Active rows ascend, so a chunk without gaps is a slice.
                r = slice(int(r[0]), int(r[-1]) + 1)
            ticks = tick_indices[r]
            lengths = grid.lengths[ticks, lo:hi]
            t_cap = int(lengths.max())
            times = grid.times[:t_cap]
            unique_ticks, row_pos = np.unique(ticks, return_inverse=True)
            profiles = ego_profile_arrays(
                [ego_motions[n] for n in unique_ticks.tolist()],
                reactions,
                times,
            )
            (
                found[:, sel],
                hit[:, sel],
                check_times[:, sel],
                scanned[:, sel],
            ) = self._scan(
                grid,
                lo,
                hi,
                times,
                profiles,
                row_pos,
                gaps[r, :t_cap],
                aspeeds[r, :t_cap],
                gaps[r, first_reaction + lo : first_reaction + hi],
                aspeeds[r, first_reaction + lo : first_reaction + hi],
                c1s,
                c2s,
                lengths,
                grid.inserted[ticks, lo:hi],
            )
        return found, hit, check_times, scanned

    def _scan(
        self,
        grid: TraceGrid,
        lo: int,
        hi: int,
        times: np.ndarray,
        profiles: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        row_pos: np.ndarray | slice,
        gaps_m: np.ndarray,
        va_m: np.ndarray,
        gaps_r: np.ndarray,
        va_r: np.ndarray,
        c1s: np.ndarray,
        c2s: np.ndarray,
        lengths: np.ndarray,
        ins: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Eq 1/2 feasibility of candidates ``[lo, hi)`` for ``R`` rows
        under ``V`` constraint pairs.

        ``profiles`` holds per-tick ego ``(dist, speed)`` over ``times``
        and ``(dist_r, speed_r)`` at ``t_r``, with a leading tick axis;
        ``row_pos`` maps rows onto it — an index array gathers one
        profile per row (one gathered array alive at a time), while
        ``slice(None)`` over a single tick's profile broadcasts it to
        every row without copies. ``lengths`` (the master prefix each
        candidate scans) and ``ins`` (``t_r`` insertions), both
        ``(·, S)``, are per row or broadcast the same way.
        ``gaps_m``/``va_m`` are the ``(R, T)`` threat samples on
        ``times``, ``gaps_r``/``va_r`` the ``(R, S)`` samples at
        ``t_r``, ``c1s``/``c2s`` the ``(V,)`` constraint vectors. Each
        row's profile is gathered once and compared against ``(V, R,
        T)`` thresholds ``c1s[v] * gap + eps``, the same element
        arithmetic as a one-variant solve.

        Returns per-(variant, row) ``(found, hit, check_time,
        scanned)``, each ``(V, R)``: whether some candidate in the
        slice is feasible, the first feasible slice-local candidate
        index, its check time, and how many merged grid points that
        candidate's scan consumed.
        """
        dist, speed, dist_r, speed_r = profiles
        reactions = grid.reactions[lo:hi]
        pos = grid.insert_at[lo:hi]

        # Eq 1/2 for every (variant, row, candidate, instant) of the
        # chunk width.
        d_ok = dist[row_pos] <= (c1s[:, None, None] * gaps_m[None] + _EPS)[
            :, :, None, :
        ]
        v_ok = speed[row_pos] <= (c2s[:, None, None] * va_m[None] + _EPS)[
            :, :, None, :
        ]
        window = times[None, :] >= reactions[:, None] - _EPS
        # d_ok & v_ok & window, built in v_ok's buffer.
        candidate = np.logical_and(v_ok, d_ok, out=v_ok)
        candidate &= window

        # First indices on the master grid — a (row, candidate) scans
        # only its ``lengths`` prefix, so a first index at or past it
        # is none — then mapped onto the merged (t_r-inserted) grid the
        # scalar search scans.
        fv_m = _first(d_ok, False, lengths)  # (V, R, S)
        cf_m = _first(candidate, True, lengths)
        first_violation = np.where(
            fv_m != _NO_INDEX, fv_m + (ins & (fv_m >= pos)), _NO_INDEX
        )
        first_candidate = np.where(
            cf_m != _NO_INDEX, cf_m + (ins & (cf_m >= pos)), _NO_INDEX
        )

        # The t_r sample itself (t_n = t_r is always inside the window).
        d_ok_r = dist_r[row_pos] <= c1s[:, None, None] * gaps_r[None] + _EPS
        v_ok_r = speed_r[row_pos] <= c2s[:, None, None] * va_r[None] + _EPS
        first_violation = np.minimum(
            first_violation, np.where(ins & ~d_ok_r, pos, _NO_INDEX)
        )
        first_candidate = np.minimum(
            first_candidate, np.where(ins & d_ok_r & v_ok_r, pos, _NO_INDEX)
        )

        # Strict prefix: every merged index at or past the first
        # distance violation is masked out, so only a candidate strictly
        # before it survives.
        feasible = first_candidate < first_violation

        found = feasible.any(axis=-1)
        hit = feasible.argmax(axis=-1)
        pick = (*np.indices(hit.shape, sparse=True), hit)
        best = first_candidate[pick]

        # Check times: merged index ``pos`` is the inserted t_r when an
        # insertion happened (master indices then map around it).
        ins_h = np.broadcast_to(ins, feasible.shape)[pick]
        pos_h = pos[hit]
        from_reaction = ins_h & (best == pos_h)
        master_index = best - (ins_h & (best > pos_h))
        check_times = np.where(
            from_reaction,
            reactions[hit],
            times[np.minimum(master_index, times.size - 1)],
        )
        return found, hit, check_times, best + 1
