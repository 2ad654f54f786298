"""Turning actor motion into the longitudinal quantities of Equations 1-2.

For a candidate check time ``t_n`` the Zhuyi constraints need two numbers:
``s_n`` — the distance between the ego at ``t0`` and the actor at ``t_n``
— and ``v_an`` — the actor's speed at ``t_n``. A *threat* is anything that
can answer those two queries over time.

Two implementations are provided: :class:`FixedGapThreat` (constant gap
and actor speed — the Figure 8 sensitivity sweep fixes ``s_n`` exactly
this way) and :class:`TrajectoryThreat` (gap and speed read off a
predicted or recorded actor trajectory).

:class:`ThreatAssessor` adds the paper's "considers the possibility of a
collision": actors whose predicted motion never enters the ego's lane
corridor within the horizon — or that stay behind the ego — cannot be hit
by a forward-driving ego and are not threats at all (their tolerable
latency is ``l_max``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro.core.parameters import ZhuyiParams
from repro.dynamics.state import (
    RolloutArrays,
    StateTrajectory,
    VehicleSpec,
    VehicleState,
)
from repro.errors import EstimationError
from repro.road.lane import StraightCenterline
from repro.road.track import Road


@runtime_checkable
class LongitudinalThreat(Protocol):
    """The per-actor inputs of Equations 1-2 as functions of time.

    Time is relative: ``t = 0`` is the estimation instant ``t0``.
    """

    def gap_at(self, t: float) -> float:
        """``s_n`` at ``t``: allowed ego travel before reaching the actor.

        Bumper-to-bumper (vehicle half-lengths already subtracted),
        clamped at zero.
        """
        ...

    def actor_speed_at(self, t: float) -> float:
        """``v_an`` at ``t``: the actor's speed (m/s)."""
        ...

    def sample(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized ``(s_n, v_an)`` over an array of relative times."""
        ...


def sample_grid(
    threat: LongitudinalThreat, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(s_n, v_an)`` over a time grid of any shape.

    Threats only promise 1-D :meth:`~LongitudinalThreat.sample`; this is
    the batch sampling entry point shared by the scalar search and the
    batched engine — one flattened interpolation per threat per call,
    reshaped back to the query grid. Because the per-element arithmetic
    is identical to a sequence of 1-D samples, both paths see
    bit-identical threat quantities.
    """
    times = np.asarray(times, dtype=float)
    gaps, speeds = threat.sample(times.ravel())
    return gaps.reshape(times.shape), speeds.reshape(times.shape)


@dataclass(frozen=True)
class FixedGapThreat:
    """A threat with constant gap and constant actor speed.

    This is the configuration of the paper's sensitivity study (Section
    4.3): "We sweep v_e0 and v_an by fixing s_n".
    """

    gap: float
    actor_speed: float

    def __post_init__(self) -> None:
        if self.gap < 0.0:
            raise EstimationError(f"gap must be non-negative, got {self.gap}")
        if self.actor_speed < 0.0:
            raise EstimationError(
                f"actor speed must be non-negative, got {self.actor_speed}"
            )

    def gap_at(self, t: float) -> float:
        return self.gap

    def actor_speed_at(self, t: float) -> float:
        return self.actor_speed

    def sample(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        times = np.asarray(times, dtype=float)
        return (
            np.full_like(times, self.gap),
            np.full_like(times, self.actor_speed),
        )


def _lateral_offsets(road: Road, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Lateral road offset of many world points (vectorized).

    A straight centerline is pure array arithmetic — the lateral of
    :meth:`~repro.road.lane.StraightCenterline.to_frenet_batch` bit for
    bit, without computing the station; other centerline shapes batch
    through :meth:`repro.road.track.Road.to_frenet_batch`.
    """
    centerline = road.centerline
    if isinstance(centerline, StraightCenterline):
        dx = xs - centerline.start.x
        dy = ys - centerline.start.y
        sin_h = math.sin(centerline.heading)
        cos_h = math.cos(centerline.heading)
        return -sin_h * dx + cos_h * dy
    _, lateral = road.to_frenet_batch(xs, ys)
    return lateral


@dataclass(frozen=True)
class CorridorSpec:
    """The ego's lane corridor, for masking out-of-corridor instants.

    A collision with a braking, lane-keeping ego is only possible while
    the actor laterally overlaps the ego's corridor; at other instants
    the distance constraint is vacuous (``s_n = inf``).
    """

    road: Road
    ego_lateral: float
    overlap_width: float

    def in_corridor(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Boolean mask of points inside the ego's corridor."""
        offsets = _lateral_offsets(self.road, xs, ys)
        return np.abs(offsets - self.ego_lateral) <= self.overlap_width


#: Resolution / span of the precomputed corridor mask (relative
#: seconds). Shared by the per-tick threat and the trace-batched
#: sampler so the two quantize lateral geometry identically.
_MASK_STEP = 0.01
_MASK_SPAN = 25.0

#: Spacing of the collision gate's scan instants (seconds), shared by
#: the per-tick gate and the row-batched gate kernel.
_GATE_STEP = 0.1


class TrajectoryThreat:
    """Threat quantities read off an actor trajectory.

    ``s_n(t)`` is the Euclidean distance from the *ego position at t0* to
    the *actor position at t0 + t*, minus both vehicles' half-lengths
    (bumper-to-bumper), clamped at zero — exactly the paper's "distance
    between the ego at time t0 and actor at t_n". Queries beyond the
    trajectory's last sample coast the actor at its final velocity (a
    frozen position with a non-zero speed would be a physically
    impossible ghost that spuriously caps the distance budget).

    Instants where the actor is laterally clear of the ego's
    :class:`CorridorSpec` report an infinite gap — the ego cannot
    collide with an actor that is not in its path at that moment, so
    the distance constraint must not bind there (this matters for the
    strict prefix check against cut-in/cut-out trajectories).
    """

    def __init__(
        self,
        ego_state: VehicleState,
        ego_spec: VehicleSpec,
        actor_trajectory: StateTrajectory,
        actor_spec: VehicleSpec,
        corridor: CorridorSpec,
        t0: float = 0.0,
    ):
        self._ego_position = ego_state.position
        self._trajectory = actor_trajectory
        self._t0 = t0
        self._half_lengths = (ego_spec.length + actor_spec.length) / 2.0
        self._corridor = corridor
        self._mask_step = _MASK_STEP
        self._mask: np.ndarray | None = None

    def gap_at(self, t: float) -> float:
        gaps, _ = self.sample(np.array([t]))
        return float(gaps[0])

    def actor_speed_at(self, t: float) -> float:
        return self._trajectory.extrapolated_state_at(self._t0 + t).speed

    def sample(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        times = np.asarray(times, dtype=float)
        xs, ys, speeds = self._trajectory.sample_extrapolated(self._t0 + times)
        distances = np.hypot(
            xs - self._ego_position.x, ys - self._ego_position.y
        )
        gaps = np.maximum(0.0, distances - self._half_lengths)
        return np.where(self._corridor_mask(times), gaps, np.inf), speeds

    def _corridor_mask(self, times: np.ndarray) -> np.ndarray:
        """In-corridor mask at the queried times (cached master grid).

        Quantization contract: the mask is evaluated exactly once, on
        the fixed master grid ``0, 10 ms, 20 ms, ... < 25 s`` of
        relative times, and *every* query — on-grid or off-grid — is
        answered by the nearest grid sample (``round(t / 10 ms)``,
        half-to-even, clamped to the grid ends; negative and beyond-span
        queries snap to the first/last sample). Off-grid queries never
        trigger a re-evaluation, and two query times closer than 5 ms to
        the same grid point always agree. The lateral geometry is smooth
        at the 10 ms scale, so the snap keeps repeated per-latency scans
        cheap even on curved roads where projection is per-point; the
        trace-batched sampler (:meth:`ThreatAssessor.sample_threats_trace`)
        applies the same quantization so both backends mask identically.
        """
        if self._mask is None:
            grid = np.arange(0.0, _MASK_SPAN, self._mask_step)
            xs, ys, _ = self._trajectory.sample_extrapolated(self._t0 + grid)
            self._mask = self._corridor.in_corridor(xs, ys)
        indices = np.clip(
            np.rint(times / self._mask_step).astype(int),
            0,
            len(self._mask) - 1,
        )
        return self._mask[indices]


@dataclass(frozen=True)
class CorridorLayout:
    """Sample columns of a scan layout plus its corridor-mask instants.

    A row sampler interpolates every distinct relative instant once:
    the ``rel_times`` scan columns first, then each 10 ms-quantized
    corridor-mask instant (the per-tick threat's round-half-to-even
    snap onto ``0, 10 ms, ... < 25 s``) that no scan column holds,
    ascending. The layout depends on ``rel_times`` alone, so a caller
    sampling many sources on one scan layout — every source of a
    :func:`repro.core.evaluator.solve_row_sources` window — builds it
    once with :meth:`of` and passes it to each sampler call.

    Attributes:
        rel_times: ``(n,)`` scan instants relative to each tick.
        instants: the instants to sample: ``rel_times``, then the
            mask-only instants.
        mask_columns: the column of ``instants`` holding each distinct
            mask instant, ascending — a slice when those are the
            leading scan columns in order, as on the engine's master
            grid at the default 10 ms ``tn_step``.
        mask_of_scan: ``(n,)`` distinct mask instant each scan column
            reads.
    """

    rel_times: np.ndarray
    instants: np.ndarray
    mask_columns: slice | np.ndarray
    mask_of_scan: np.ndarray

    @staticmethod
    def of(rel_times: np.ndarray) -> CorridorLayout:
        """The layout of the scan instants ``rel_times``."""
        rel_times = np.asarray(rel_times, dtype=float)
        grid = np.arange(0.0, _MASK_SPAN, _MASK_STEP)
        indices = np.clip(
            np.rint(rel_times / _MASK_STEP).astype(int), 0, grid.size - 1
        )
        mask_instants, mask_of_scan = np.unique(
            grid[indices], return_inverse=True
        )
        # A quantized instant reuses the scan column holding the same
        # float; a query t0 + c with the same float c interpolates and
        # projects to the same floats, so the reuse changes no value.
        order = np.argsort(rel_times, kind="stable")
        at = order[
            np.minimum(
                np.searchsorted(rel_times[order], mask_instants),
                rel_times.size - 1,
            )
        ]
        reused = rel_times[at] == mask_instants
        mask_columns = np.where(
            reused, at, rel_times.size + np.cumsum(~reused) - 1
        )
        if np.array_equal(mask_columns, np.arange(mask_columns.size)):
            mask_columns = slice(0, mask_columns.size)
        return CorridorLayout(
            rel_times=rel_times,
            instants=np.concatenate([rel_times, mask_instants[~reused]]),
            mask_columns=mask_columns,
            mask_of_scan=mask_of_scan,
        )


@dataclass(frozen=True)
class EgoPathRows:
    """Ego-side row arrays shared by every actor of a trace.

    Everything the row-batched gate and sampler need from the ego —
    world positions and path (Frenet) coordinates per tick — depends
    only on the ego states and the road, never on an actor or on the
    Zhuyi constants. Build once per trace with
    :meth:`ThreatAssessor.ego_path_rows` and pass to every
    :meth:`~ThreatAssessor.could_collide_trace` /
    :meth:`~ThreatAssessor.sample_threats_trace` call for that trace —
    the cross-actor (and, in the campaign super-cell path,
    cross-variant) cache of the ego-side arrays. Values are exactly
    what each call would have derived itself.

    Attributes:
        xs / ys: per-tick ego world coordinates.
        s / d: per-tick ego road Frenet station and lateral offset.
    """

    xs: np.ndarray
    ys: np.ndarray
    s: np.ndarray
    d: np.ndarray

    def take(self, ticks: np.ndarray) -> EgoPathRows:
        """The rows at ``ticks`` (a subset of the tick axis)."""
        return EgoPathRows(
            xs=self.xs[ticks],
            ys=self.ys[ticks],
            s=self.s[ticks],
            d=self.d[ticks],
        )


@dataclass(frozen=True)
class ThreatAssessor:
    """Decides whether an actor is a collision threat to the ego.

    The decision samples the actor's predicted motion over the horizon in
    road Frenet coordinates and requires that

    * the actor is not behind the ego's rear bumper at ``t0`` (a braking
      ego cannot collide with traffic approaching from behind — that
      actor's own safety envelope is responsible, as in RSS), and
    * at some sampled time the actor laterally overlaps the ego's
      corridor (half-widths + margin) while *fully ahead* of the ego —
      an abeam actor drifting sideways into the ego is a side-swipe no
      processing rate can brake away from, and again the merger's
      responsibility under RSS.

    Actors failing these can only be struck if the ego leaves its lane,
    which the paper's hard-braking safety procedure never does.
    """

    params: ZhuyiParams
    road: Road

    def assess(
        self,
        ego_state: VehicleState,
        ego_spec: VehicleSpec,
        actor_trajectory: StateTrajectory,
        actor_spec: VehicleSpec,
        t0: float = 0.0,
    ) -> TrajectoryThreat | None:
        """The actor's threat view, or ``None`` if it cannot collide."""
        if not self._could_collide(
            ego_state, ego_spec, actor_trajectory, actor_spec, t0
        ):
            return None
        return self.build_threat(
            ego_state, ego_spec, actor_trajectory, actor_spec, t0
        )

    def build_threat(
        self,
        ego_state: VehicleState,
        ego_spec: VehicleSpec,
        actor_trajectory: StateTrajectory,
        actor_spec: VehicleSpec,
        t0: float = 0.0,
    ) -> TrajectoryThreat:
        """The actor's threat view, collision gate already decided.

        Callers that precomputed the gate — e.g. the offline evaluator's
        :meth:`could_collide_trace` table — build threats directly;
        :meth:`assess` is the gate-then-build convenience.
        """
        return TrajectoryThreat(
            ego_state=ego_state,
            ego_spec=ego_spec,
            actor_trajectory=actor_trajectory,
            actor_spec=actor_spec,
            t0=t0,
            corridor=CorridorSpec(
                road=self.road,
                ego_lateral=self.road.to_frenet(ego_state.position).d,
                overlap_width=(
                    (ego_spec.width + actor_spec.width) / 2.0
                    + self.params.lateral_margin
                ),
            ),
        )

    def _could_collide(
        self,
        ego_state: VehicleState,
        ego_spec: VehicleSpec,
        actor_trajectory: StateTrajectory,
        actor_spec: VehicleSpec,
        t0: float,
    ) -> bool:
        ego = self.road.to_frenet(ego_state.position)
        overlap_width = (
            (ego_spec.width + actor_spec.width) / 2.0 + self.params.lateral_margin
        )
        half_lengths = (ego_spec.length + actor_spec.length) / 2.0
        rear_bumper = ego.s - half_lengths

        horizon = min(
            self.params.horizon,
            max(actor_trajectory.end_time - t0, 0.0) + _GATE_STEP,
        )
        # The gate instants accumulate like the reference scalar loop
        # did (t += step, not a closed-form grid), then project in one
        # batched interpolation + Frenet conversion: this gate runs for
        # every actor at every tick, and per-instant Python projection
        # was the evaluator's second-largest interpreter cost.
        gate_times = []
        t = 0.0
        while t <= horizon + 1e-9:
            gate_times.append(t0 + t)
            # reprolint: disable=DET003 -- the accumulated gate grid IS
            # the pinned scalar-reference contract: the batched kernels
            # reproduce these exact instants bit-for-bit (corridor-mask
            # quantization tests); a closed-form grid would shift the
            # last bits and break every curved golden.
            t += _GATE_STEP
        xs, ys, _ = actor_trajectory.sample_extrapolated(np.array(gate_times))
        stations, laterals = self.road.to_frenet_batch(xs, ys)

        if stations[0] < rear_bumper:
            return False
        laterally_overlapping = np.abs(laterals - ego.d) <= overlap_width
        fully_ahead = stations >= ego.s + half_lengths
        return bool(np.any(laterally_overlapping & fully_ahead))

    def ego_path_rows(self, ego_states) -> EgoPathRows:
        """The :class:`EgoPathRows` for a trace's tick axis.

        One batched Frenet conversion serving every per-actor gate and
        sampler call on these ticks — the same arrays those calls
        derive on their own when no cache is passed.
        """
        xs = np.array([state.position.x for state in ego_states])
        ys = np.array([state.position.y for state in ego_states])
        s, d = self.road.to_frenet_batch(xs, ys)
        return EgoPathRows(xs=xs, ys=ys, s=s, d=d)

    def could_collide_trace(
        self,
        ego_states,
        ego_spec: VehicleSpec,
        actor_trajectory: StateTrajectory,
        actor_spec: VehicleSpec,
        t0s: np.ndarray,
        ego_rows: EgoPathRows | None = None,
    ) -> np.ndarray:
        """Vectorized collision gate over every tick of a trace.

        One interpolation and one Frenet conversion answer
        :meth:`assess`'s gate question for all estimation instants at
        once — element-for-element the same arithmetic as the per-tick
        gate, so the verdicts are identical; only the per-tick
        interpreter overhead (the offline evaluator's second-largest
        cost) disappears.

        Args:
            ego_states: the ego state at each tick (``t0s``-aligned).
            ego_spec / actor_trajectory / actor_spec: as in
                :meth:`assess`.
            t0s: the estimation instants.
            ego_rows: optional precomputed :meth:`ego_path_rows` for
                these ticks (the cross-actor ego-side cache).

        Returns:
            Boolean array: whether the actor could collide at each tick.
        """
        t0s = np.asarray(t0s, dtype=float)
        return self._gate_rows(
            ego_states,
            ego_spec,
            actor_trajectory.sample_extrapolated,
            actor_trajectory.end_time,
            actor_spec,
            t0s,
            ego_rows=ego_rows,
        )

    def could_collide_futures(
        self,
        ego_states,
        ego_spec: VehicleSpec,
        futures: RolloutArrays,
        actor_spec: VehicleSpec,
        t0s: np.ndarray,
        ego_rows: EgoPathRows | None = None,
    ) -> np.ndarray:
        """:meth:`could_collide_trace` for *predicted* per-tick futures.

        Where the trace gate shares one recorded trajectory across all
        ticks, the replay path predicts a fresh future per tick: row
        ``n`` of ``futures`` is the actor's hypothesized rollout as of
        tick ``n``, so the horizons come from each row's own final knot
        and the interpolation runs against per-row knot grids. The
        gate arithmetic is the shared row kernel either way, so a
        replay tick is gated identically whether the future was
        materialized as a ``StateTrajectory`` or stayed in array form.

        Args:
            ego_states: the ego state at each tick (``t0s``-aligned).
            ego_spec / actor_spec: as in :meth:`assess`.
            futures: one predicted rollout per tick
                (:class:`repro.dynamics.state.RolloutArrays`).
            t0s: the estimation instants, aligned with ``futures`` rows.
            ego_rows: optional precomputed :meth:`ego_path_rows` for
                these ticks (the cross-hypothesis ego-side cache).

        Returns:
            Boolean array: whether the actor could collide at each tick.
        """
        t0s = np.asarray(t0s, dtype=float)
        return self._gate_rows(
            ego_states,
            ego_spec,
            futures.sample_extrapolated,
            futures.times[:, -1],
            actor_spec,
            t0s,
            ego_rows=ego_rows,
        )

    def sample_threat_futures(
        self,
        ego_states,
        ego_spec: VehicleSpec,
        futures: RolloutArrays,
        actor_spec: VehicleSpec,
        t0s: np.ndarray,
        rel_times: np.ndarray,
        ego_rows: EgoPathRows | None = None,
        layout: CorridorLayout | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`sample_threats_trace` for *predicted* per-tick futures.

        One batched interpolation answers every (tick, instant) threat
        query against each tick's own predicted rollout — the same
        shared row kernel as the trace sampler, so the values equal a
        per-tick :class:`TrajectoryThreat` build-and-sample bit for bit
        (Euclidean gap from the tick's ego position, half-lengths
        subtracted, the 10 ms corridor-mask quantization).

        Args:
            ego_states: ego state at each queried tick.
            ego_spec / actor_spec: as in :meth:`assess`.
            futures: one predicted rollout per queried tick.
            t0s: the queried estimation instants (row-aligned).
            rel_times: scan instants relative to each tick.
            ego_rows: optional precomputed :meth:`ego_path_rows` for
                these ticks (the cross-hypothesis ego-side cache).
            layout: optional precomputed :meth:`CorridorLayout.of` of
                ``rel_times`` (the cross-source cache of one window).

        Returns:
            ``(s_n, v_an)`` arrays of shape ``(len(t0s), len(rel_times))``.
        """
        return self._sample_rows(
            ego_states,
            ego_spec,
            futures.sample_extrapolated,
            actor_spec,
            t0s,
            rel_times,
            ego_rows=ego_rows,
            layout=layout,
        )

    def _gate_rows(
        self,
        ego_states,
        ego_spec: VehicleSpec,
        sampler,
        end_times,
        actor_spec: VehicleSpec,
        t0s: np.ndarray,
        ego_rows: EgoPathRows | None = None,
    ) -> np.ndarray:
        """The collision gate over (tick,) rows — the shared kernel.

        ``sampler`` maps a ``(rows, instants)`` absolute-time query
        grid to ``(xs, ys, speeds)`` arrays (a recorded trajectory's
        ``sample_extrapolated`` broadcast over every row, or a
        :class:`RolloutArrays` batch interpolating each row's own
        knots); ``end_times`` is the prediction end per row (scalar or
        array). Element for element this is the per-tick
        :meth:`assess` gate: accumulated gate instants, one batched
        interpolation + Frenet conversion, the same behind/overlap
        verdicts — one derivation serving both the offline trace gate
        and the replay futures gate, so the two cannot drift.
        """
        if ego_rows is None:
            ego_rows = self.ego_path_rows(ego_states)
        ego_s, ego_d = ego_rows.s, ego_rows.d
        overlap_width = (
            (ego_spec.width + actor_spec.width) / 2.0 + self.params.lateral_margin
        )
        half_lengths = (ego_spec.length + actor_spec.length) / 2.0

        horizons = np.minimum(
            self.params.horizon,
            np.maximum(end_times - t0s, 0.0) + _GATE_STEP,
        )
        # The accumulated gate instants (t += step), shared by every
        # tick; each tick masks the prefix its horizon admits — the
        # same values and the same stop condition as the scalar loop.
        gate_rel = []
        t = 0.0
        limit = float(horizons.max()) + 1e-9
        while t <= limit:
            gate_rel.append(t)
            # reprolint: disable=DET003 -- shared accumulated gate grid,
            # deliberately identical to could_collide's scalar loop
            # above (same values, same stop condition); see that
            # pragma's justification.
            t += _GATE_STEP
        gate_rel = np.array(gate_rel)
        in_horizon = gate_rel[None, :] <= horizons[:, None] + 1e-9

        queries = t0s[:, None] + gate_rel[None, :]
        xs, ys, _ = sampler(queries)
        stations, laterals = self.road.to_frenet_batch(xs, ys)

        overlapping = np.abs(laterals - ego_d[:, None]) <= overlap_width
        ahead = stations >= (ego_s + half_lengths)[:, None]
        could = np.any(overlapping & ahead & in_horizon, axis=1)
        behind = stations[:, 0] < ego_s - half_lengths
        return could & ~behind

    def _sample_rows(
        self,
        ego_states,
        ego_spec: VehicleSpec,
        sampler,
        actor_spec: VehicleSpec,
        t0s: np.ndarray,
        rel_times: np.ndarray,
        ego_rows: EgoPathRows | None = None,
        layout: CorridorLayout | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Threat quantities over (tick, instant) rows — the shared kernel.

        ``sampler`` as in :meth:`_gate_rows`. Element for element this
        is a per-tick :class:`TrajectoryThreat` build-and-sample —
        including the 10 ms corridor-mask quantization — with every
        distinct relative instant interpolated once per batch (one
        ``sampler`` call over the :class:`CorridorLayout` instants).
        Lateral offsets are computed once per distinct mask instant —
        on a view of the leading scan columns when the layout's mask
        columns are those, in order — and gathered to the scan columns.

        ``rel_times`` is any scan layout — the solver's is the master
        prefix ``times[:T']`` plus the ``L`` reactions (``T' + L``
        columns). ``layout`` is its :meth:`CorridorLayout.of`, built
        here when the caller has none.
        """
        t0s = np.asarray(t0s, dtype=float)
        rel_times = np.asarray(rel_times, dtype=float)
        half_lengths = (ego_spec.length + actor_spec.length) / 2.0
        n_rel = rel_times.size
        if layout is None:
            layout = CorridorLayout.of(rel_times)
        xs, ys, speeds = sampler(t0s[:, None] + layout.instants[None, :])
        if ego_rows is None:
            ego_rows = self.ego_path_rows(ego_states)
        distances = np.hypot(
            xs[:, :n_rel] - ego_rows.xs[:, None],
            ys[:, :n_rel] - ego_rows.ys[:, None],
        )
        gaps = np.maximum(0.0, distances - half_lengths)
        speeds = speeds[:, :n_rel]
        offsets = _lateral_offsets(
            self.road, xs[:, layout.mask_columns], ys[:, layout.mask_columns]
        )
        # Per-tick ego laterals batch through the exact Frenet kernel:
        # to_frenet_batch is bit-identical to the scalar to_frenet
        # build_threat calls (the road/lane.py contract), so a
        # corridor-edge tick lands on the same side in both backends
        # without a per-tick scalar fallback.
        overlap_width = (
            (ego_spec.width + actor_spec.width) / 2.0
            + self.params.lateral_margin
        )
        in_corridor = np.abs(offsets - ego_rows.d[:, None]) <= overlap_width
        gaps = np.where(in_corridor[:, layout.mask_of_scan], gaps, np.inf)
        return gaps, np.ascontiguousarray(speeds)

    def sample_threats_trace(
        self,
        ego_states,
        ego_spec: VehicleSpec,
        actor_trajectory: StateTrajectory,
        actor_spec: VehicleSpec,
        t0s: np.ndarray,
        rel_times: np.ndarray,
        ego_rows: EgoPathRows | None = None,
        layout: CorridorLayout | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`TrajectoryThreat.sample` across many ticks.

        One interpolation answers every (tick, instant) threat query an
        evaluation pass needs for this actor — element-for-element the
        same arithmetic as building a per-tick :class:`TrajectoryThreat`
        and sampling it (including the 10 ms corridor-mask
        quantization), so the values are identical and only the
        per-tick interpreter overhead disappears.

        Args:
            ego_states: ego state at each queried tick.
            ego_spec / actor_trajectory / actor_spec: as in
                :meth:`assess`.
            t0s: the queried estimation instants (``ego_states``-aligned).
            rel_times: scan instants relative to each tick.
            ego_rows: optional precomputed :meth:`ego_path_rows` for
                these ticks (the cross-actor ego-side cache).
            layout: optional precomputed :meth:`CorridorLayout.of` of
                ``rel_times`` (the cross-source cache of one window).

        Returns:
            ``(s_n, v_an)`` arrays of shape ``(len(t0s), len(rel_times))``.
        """
        return self._sample_rows(
            ego_states,
            ego_spec,
            actor_trajectory.sample_extrapolated,
            actor_spec,
            t0s,
            rel_times,
            ego_rows=ego_rows,
            layout=layout,
        )
