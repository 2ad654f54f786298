"""Equation 5 — per-camera frame processing rate from per-actor latencies.

``FPR_sensor = 1 / min over actors in the camera's FOV of l_actor``.

A camera seeing no threatening actor needs only the floor rate
(``1 / l_max``); a camera whose most binding actor admits no safe latency
at all is pinned at the cap (``1 / l_min``) and flagged unavoidable.

:func:`estimate_camera_fprs` is the scalar reference, one instant of
dictionaries; :func:`camera_fpr_columns` is the same rollup over a
whole tick axis of arrays, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

import numpy as np

from repro.core.latency import UNAVOIDABLE_LATENCY
from repro.core.parameters import ZhuyiParams


@dataclass(frozen=True)
class CameraEstimate:
    """Zhuyi's output for one camera at one instant.

    Attributes:
        camera: camera name.
        latency: the binding (minimum) tolerable latency among actors in
            this camera's FOV, seconds; ``l_max`` when the FOV is clear.
        fpr: the Equation 5 processing-rate requirement (frames/second).
        binding_actor: id of the actor that set the minimum, or ``None``.
        unavoidable: True when the binding actor admits no safe latency.
        actor_count: number of (threatening) actors in the FOV.
    """

    camera: str
    latency: float
    fpr: float
    binding_actor: Hashable | None
    unavoidable: bool
    actor_count: int


def fpr_from_latency(latency: float | None, params: ZhuyiParams) -> float:
    """Equation 5 for one latency value, clamped to the model's grid.

    ``None`` (or zero) latency — an unavoidable collision verdict — maps
    to the cap ``1 / l_min``: the model cannot ask for more than the
    fastest rate it reasons about.
    """
    if latency is None or latency <= UNAVOIDABLE_LATENCY:
        return params.fpr_cap()
    clamped = min(max(latency, params.l_min), params.l_max)
    return 1.0 / clamped


def estimate_camera_fprs(
    actor_latencies: Mapping[Hashable, float | None],
    camera_actors: Mapping[str, Sequence[Hashable]],
    params: ZhuyiParams,
) -> dict[str, CameraEstimate]:
    """Equation 5 across a camera rig.

    Args:
        actor_latencies: per-actor aggregated tolerable latency; ``None``
            marks an unavoidable collision verdict. Actors absent from
            the mapping were gated out as non-threats (latency ``l_max``).
        camera_actors: actor ids inside each camera's FOV at ``t0``.
        params: the Zhuyi constants.

    Returns:
        One :class:`CameraEstimate` per camera in ``camera_actors``.
    """
    estimates: dict[str, CameraEstimate] = {}
    for camera, members in camera_actors.items():
        binding_actor: Hashable | None = None
        binding_latency = params.l_max
        unavoidable = False
        threat_count = 0
        for actor in members:
            if actor not in actor_latencies:
                continue  # gated out: no collision possible
            threat_count += 1
            latency = actor_latencies[actor]
            effective = (
                UNAVOIDABLE_LATENCY if latency is None else latency
            )
            if effective < binding_latency:
                binding_latency = effective
                binding_actor = actor
                unavoidable = latency is None
        estimates[camera] = CameraEstimate(
            camera=camera,
            latency=binding_latency,
            fpr=fpr_from_latency(
                None if unavoidable else binding_latency, params
            ),
            binding_actor=binding_actor,
            unavoidable=unavoidable,
            actor_count=threat_count,
        )
    return estimates


@dataclass(frozen=True)
class CameraColumns:
    """A rig's :class:`CameraEstimate` fields over a tick axis.

    Row ``c`` of every array is camera ``cameras[c]``, column ``i`` is
    tick ``i``.

    Attributes:
        cameras: the camera names.
        latency: (C, N) binding latencies.
        fpr: (C, N) Equation 5 rates.
        binding: (C, N) actor-axis index of the binding actor, -1 for
            none.
        unavoidable: (C, N) whether the binding actor admits no latency.
        count: (C, N) threatening actors in the FOV.
    """

    cameras: tuple[str, ...]
    latency: np.ndarray
    fpr: np.ndarray
    binding: np.ndarray
    unavoidable: np.ndarray
    count: np.ndarray

    @classmethod
    def record(
        cls,
        ticks: Sequence[Mapping[str, CameraEstimate]],
        index: Mapping[Hashable, int],
    ) -> CameraColumns:
        """Per-tick estimates (cameras in the first tick's order) as
        columns; ``index`` places binding actors on the actor axis."""
        cameras = tuple(ticks[0])
        rows = [[estimates[camera] for estimates in ticks] for camera in cameras]
        return cls(
            cameras=cameras,
            latency=np.array([[e.latency for e in row] for row in rows], float),
            fpr=np.array([[e.fpr for e in row] for row in rows], float),
            binding=np.array(
                [
                    [
                        -1 if e.binding_actor is None else index[e.binding_actor]
                        for e in row
                    ]
                    for row in rows
                ],
                np.int64,
            ),
            unavoidable=np.array(
                [[e.unavoidable for e in row] for row in rows], bool
            ),
            count=np.array(
                [[e.actor_count for e in row] for row in rows], np.int64
            ),
        )

    def estimates(
        self, tick: int, actor_ids: Sequence[Hashable]
    ) -> dict[str, CameraEstimate]:
        """Tick ``tick`` as the scalar rollup's estimates, camera order."""
        return {
            camera: CameraEstimate(
                camera=camera,
                latency=latency,
                fpr=fpr,
                binding_actor=None if binding < 0 else actor_ids[binding],
                unavoidable=unavoidable,
                actor_count=count,
            )
            for camera, latency, fpr, binding, unavoidable, count in zip(
                self.cameras,
                self.latency[:, tick].tolist(),
                self.fpr[:, tick].tolist(),
                self.binding[:, tick].tolist(),
                self.unavoidable[:, tick].tolist(),
                self.count[:, tick].tolist(),
            )
        }


def camera_fpr_columns(
    latencies: np.ndarray,
    visibility: Mapping[str, np.ndarray],
    params: ZhuyiParams,
) -> CameraColumns:
    """Equation 5 across a camera rig at every tick of an axis at once.

    :func:`estimate_camera_fprs` for each tick, as one (camera, tick,
    actor) array program. The actor axis is the scalar loop's member
    order, so the first actor at the minimum binds (``argmin`` keeps
    the first, as the strict ``<`` does), and only a latency strictly
    below ``l_max`` binds at all.

    Args:
        latencies: (N, A) per-actor latencies: NaN marks an unavoidable
            verdict (``None``), ``inf`` an actor absent from that tick's
            mapping (gated out).
        visibility: per camera, the (N, A) FOV membership table, with
            any detection masks already ANDed in.
        params: the Zhuyi constants.

    Returns:
        The rig's columns, cameras in ``visibility`` order.
    """
    n_ticks, n_actors = latencies.shape
    cameras = tuple(visibility)
    unavoidable = np.isnan(latencies)
    members = np.stack([visibility[camera] for camera in cameras]) & (
        latencies != np.inf
    )
    latency = np.full((len(cameras), n_ticks), params.l_max)
    binding = np.full((len(cameras), n_ticks), -1)
    pinned = np.zeros((len(cameras), n_ticks), dtype=bool)
    if n_actors:
        candidates = np.where(
            members,
            np.where(unavoidable, UNAVOIDABLE_LATENCY, latencies),
            np.inf,
        )
        first = candidates.argmin(axis=2)
        lowest = np.take_along_axis(candidates, first[..., None], axis=2)[
            ..., 0
        ]
        binds = lowest < params.l_max
        latency[binds] = lowest[binds]
        binding[binds] = first[binds]
        pinned[binds] = unavoidable[np.nonzero(binds)[1], first[binds]]
    # fpr_from_latency, elementwise: the clamp keeps the division off
    # zero, and the cap wins wherever it applies.
    fpr = np.where(
        pinned | (latency <= UNAVOIDABLE_LATENCY),
        params.fpr_cap(),
        1.0 / np.minimum(np.maximum(latency, params.l_min), params.l_max),
    )
    return CameraColumns(
        cameras=cameras,
        latency=latency,
        fpr=fpr,
        binding=binding,
        unavoidable=pinned,
        count=members.sum(axis=2),
    )
