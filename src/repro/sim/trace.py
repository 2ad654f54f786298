"""Scenario traces: the record the pre-deployment evaluator consumes.

"For each AV tested scenario, the scenario trace is collected which
includes the states of the ego and all the actors at all the time-steps"
(Section 3.1). A trace holds that record as a handful of numpy columns
(:data:`COLUMNS`) plus its JSON-sized header: specs, metadata,
collisions and the column vocabularies. The interpolated
:class:`StateTrajectory` objects the Zhuyi evaluator queries adopt the
columns without copying them, and the trace store persists (and
memory-maps back) exactly these columns. The simulator records the
columns step by step (:class:`TraceRecorder`); the conversion to and
from per-step :class:`TraceStep` objects is exact in both directions:
every float keeps its bit pattern, every mapping its iteration order.
Traces serialize to JSON for archival.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.dynamics.state import StateTrajectory, VehicleSpec, VehicleState
from repro.errors import EstimationError, TraceError
from repro.geometry.vec import Vec2
from repro.sim.collision import CollisionEvent

#: A trace's array columns, in the trace store's write order. ``times``
#: ``(S,)`` holds the step timestamps; ``ego`` ``(5, S)`` the ego state
#: rows x, y, heading, speed, accel; ``actor_masks`` ``(A, S)`` whether
#: actor ``a`` is present at step ``s``; ``actor_columns`` ``(5, total)``
#: the present steps' actor states, actors concatenated in
#: first-appearance order (actor ``a`` owns
#: ``actor_offsets[a]:actor_offsets[a + 1]``); ``mode_codes`` ``(S,)``
#: indices into ``mode_vocab``; and the per-step camera FPR mappings in
#: ragged form: step ``s`` owns ``camera_codes`` / ``camera_values``
#: ``[camera_offsets[s]:camera_offsets[s + 1]]`` in the step's own key
#: order, codes indexing ``camera_vocab``.
COLUMNS = (
    "times",
    "ego",
    "actor_masks",
    "actor_columns",
    "mode_codes",
    "camera_codes",
    "camera_values",
    "camera_offsets",
)


@dataclass(frozen=True)
class TraceStep:
    """The scene at one simulation step."""

    time: float
    ego: VehicleState
    actors: Mapping[str, VehicleState]
    planner_mode: str = "cruise"
    camera_fprs: Mapping[str, float] = field(default_factory=dict)


class TraceRecorder:
    """Records steps straight into a trace's :data:`COLUMNS`.

    The one producer of trace columns: the simulator records each
    step's values as it runs, and a trace built from :class:`TraceStep`
    objects (JSON load, tests) feeds them through the same
    :meth:`record`. Ids are validated as they first appear, and each
    step's actors must iterate in first-appearance order, which the
    columns need to represent a trace losslessly.
    """

    def __init__(self):
        self._times: list[float] = []
        self._ego: list[tuple[float, ...]] = []
        self._actor_rank: dict[str, int] = {}
        # Per actor rank: the steps it is present at and its states there.
        self._actor_steps: list[list[int]] = []
        self._actor_rows: list[list[tuple[float, ...]]] = []
        self._mode_code: dict[str, int] = {}
        self._mode_codes: list[int] = []
        self._camera_code: dict[str, int] = {}
        self._camera_codes: list[int] = []
        self._camera_values: list[float] = []
        self._camera_offsets: list[int] = [0]

    def __len__(self) -> int:
        return len(self._times)

    @property
    def last_time(self) -> float:
        """The latest recorded step's time."""
        return self._times[-1]

    def record(
        self,
        time: float,
        ego: VehicleState,
        actors: Mapping[str, VehicleState],
        planner_mode: str,
        camera_fprs: Mapping[str, float],
    ) -> None:
        """Append one step; the mappings are read now, not kept.

        Raises:
            TraceError: on a non-string actor or camera id, or when the
                step's actor iteration order disagrees with the
                first-appearance order, which the columns cannot
                represent (nothing the simulator produces does).
        """
        pos = len(self._times)
        self._times.append(time)
        self._ego.append(_state_row(ego))
        ranks, steps, rows = self._actor_rank, self._actor_steps, self._actor_rows
        last_rank = -1
        for actor_id, state in actors.items():
            rank = ranks.get(actor_id)
            if rank is None:
                _check_id(actor_id)
                rank = ranks[actor_id] = len(rows)
                steps.append([])
                rows.append([])
            if rank <= last_rank:
                raise TraceError(
                    "trace step actor order is inconsistent with "
                    "first-appearance order; the columnar form "
                    "cannot represent it losslessly"
                )
            last_rank = rank
            steps[rank].append(pos)
            rows[rank].append(_state_row(state))
        code = self._mode_code.get(planner_mode)
        if code is None:
            code = self._mode_code[planner_mode] = len(self._mode_code)
        self._mode_codes.append(code)
        cameras, codes = self._camera_code, self._camera_codes
        values = self._camera_values
        for camera, value in camera_fprs.items():
            code = cameras.get(camera)
            if code is None:
                _check_id(camera, kind="camera id")
                code = cameras[camera] = len(cameras)
            codes.append(code)
            values.append(value)
        self._camera_offsets.append(len(codes))

    def columns(self) -> tuple:
        """The recorded :data:`COLUMNS` plus vocabularies.

        Returns ``(columns, actor_order, actor_offsets, mode_vocab,
        camera_vocab)``, the arguments :meth:`ScenarioTrace.from_columns`
        takes after the header.
        """
        steps = len(self._times)
        masks = np.zeros((len(self._actor_rows), steps), dtype=bool)
        offsets = [0]
        blocks = []
        for rank, rows in enumerate(self._actor_rows):
            masks[rank, self._actor_steps[rank]] = True
            offsets.append(offsets[-1] + len(rows))
            blocks.append(_row_columns(rows))
        columns = {
            "times": np.array(self._times, dtype=float),
            "ego": _row_columns(self._ego),
            "actor_masks": masks,
            "actor_columns": (
                np.concatenate(blocks, axis=1)
                if blocks
                else np.zeros((5, 0), dtype=float)
            ),
            "mode_codes": np.array(self._mode_codes, dtype=np.int32),
            "camera_codes": np.array(self._camera_codes, dtype=np.int32),
            "camera_values": np.array(self._camera_values, dtype=float),
            "camera_offsets": np.array(self._camera_offsets, dtype=np.int64),
        }
        return (
            columns,
            tuple(self._actor_rank),
            offsets,
            tuple(self._mode_code),
            tuple(self._camera_code),
        )


class ScenarioTrace:
    """A full recorded run of one scenario, held as columns.

    The simulator records its columns directly (:class:`TraceRecorder`)
    and the trace store memory-maps them back; both hand them to
    :meth:`from_columns`, and the steps are built only if something
    asks for them (JSON export). A trace constructed from
    :class:`TraceStep` objects records them through the same recorder
    and keeps them as :attr:`steps`. Every query answers from the
    columns. :meth:`close` releases them (and the bundle's handles); a
    closed trace raises :class:`TraceError` on further column access.
    """

    def __init__(
        self,
        scenario: str,
        dt: float,
        steps: Sequence[TraceStep],
        collisions: Sequence[CollisionEvent] = (),
        nominal_fpr: float | None = None,
        seed: int | None = None,
        ego_spec: VehicleSpec | None = None,
        actor_specs: Mapping[str, VehicleSpec] | None = None,
        metadata: Mapping[str, object] | None = None,
    ):
        if not steps:
            raise TraceError("a trace needs at least one step")
        steps = list(steps)
        recorder = TraceRecorder()
        for step in steps:
            recorder.record(
                step.time, step.ego, step.actors, step.planner_mode,
                step.camera_fprs,
            )
        self._set_header(
            scenario, dt, collisions, nominal_fpr, seed, ego_spec,
            actor_specs, metadata,
        )
        self._adopt(*recorder.columns(), steps=steps)

    @classmethod
    def from_columns(
        cls,
        header: Mapping,
        columns: Mapping[str, np.ndarray],
        actor_order: Sequence[str],
        actor_offsets: Sequence[int],
        mode_vocab: Sequence[str],
        camera_vocab: Sequence[str],
        closer: Callable[[], None] | None = None,
    ) -> "ScenarioTrace":
        """Adopt recorded columns as a trace, without copying them.

        Args:
            header: the :meth:`header_dict` payload (:func:`trace_header`
                builds it from the header's objects).
            columns: every array of :data:`COLUMNS`, adopted as given.
            actor_order / actor_offsets / mode_vocab / camera_vocab:
                the column vocabularies, as :meth:`TraceRecorder.columns`
                returns them.
            closer: called once by :meth:`close` (the store's memmap
                release).
        """
        self = cls.__new__(cls)
        self._set_header(**_header_from_dict(header))
        self._adopt(
            columns, actor_order, actor_offsets, mode_vocab, camera_vocab,
            closer=closer,
        )
        return self

    def _set_header(
        self,
        scenario: str,
        dt: float,
        collisions: Sequence[CollisionEvent],
        nominal_fpr: float | None,
        seed: int | None,
        ego_spec: VehicleSpec | None,
        actor_specs: Mapping[str, VehicleSpec] | None,
        metadata: Mapping[str, object] | None,
    ) -> None:
        self.scenario = scenario
        self.dt = dt
        self.collisions = list(collisions)
        self.nominal_fpr = nominal_fpr
        self.seed = seed
        self.ego_spec = ego_spec if ego_spec is not None else VehicleSpec()
        self.actor_specs = dict(actor_specs) if actor_specs else {}
        # Serialization is lossless only for what JSON can key and
        # value: non-string actor ids would be silently stringified by
        # ``json.dumps`` (diverging from the collision payloads, which
        # keep their native type), and metadata holding tuples or numpy
        # scalars would come back as different types. Rejecting ids and
        # canonicalizing metadata here makes the in-memory trace equal
        # its own round trip, bit for bit.
        for actor_id in self.actor_specs:
            _check_id(actor_id)
        for event in self.collisions:
            if not isinstance(event.actor_id, str):
                raise TraceError(
                    "collision actor ids must be strings, got "
                    f"{event.actor_id!r}"
                )
        self.metadata = (
            _canonical_metadata(metadata, where="metadata")
            if metadata
            else {}
        )

    def _adopt(
        self,
        columns: Mapping[str, np.ndarray],
        actor_order: Sequence[str],
        actor_offsets: Sequence[int],
        mode_vocab: Sequence[str],
        camera_vocab: Sequence[str],
        steps: list[TraceStep] | None = None,
        closer: Callable[[], None] | None = None,
    ) -> None:
        self._columns: dict[str, np.ndarray] | None = {
            name: columns[name] for name in COLUMNS
        }
        self._actor_order = tuple(actor_order)
        self.actor_offsets = tuple(actor_offsets)
        self.mode_vocab = tuple(mode_vocab)
        self.camera_vocab = tuple(camera_vocab)
        self._steps = steps
        self._closer = closer
        self._ego_trajectory: StateTrajectory | None = None
        self._actor_trajectories: dict[str, StateTrajectory] = {}

    # ------------------------------------------------------------------
    # columns and steps
    # ------------------------------------------------------------------

    @property
    def columns(self) -> dict[str, np.ndarray]:
        """The :data:`COLUMNS` arrays (read-only by contract).

        Raises:
            TraceError: once the trace is closed.
        """
        if self._columns is None:
            raise TraceError("trace is closed")
        return self._columns

    @property
    def steps(self) -> list[TraceStep]:
        """The per-step objects, built from the columns on first use."""
        if self._steps is None:
            self._steps = self._build_steps()
        return self._steps

    def _build_steps(self) -> list[TraceStep]:
        columns = self.columns
        times, ego = columns["times"], columns["ego"]
        masks, actor_columns = columns["actor_masks"], columns["actor_columns"]
        mode_codes = columns["mode_codes"]
        cam_codes, cam_values = columns["camera_codes"], columns["camera_values"]
        cam_offsets = columns["camera_offsets"]
        cursors = list(self.actor_offsets[:-1])
        steps: list[TraceStep] = []
        for pos in range(times.shape[0]):
            actors: dict[str, VehicleState] = {}
            for rank, actor_id in enumerate(self._actor_order):
                if masks[rank, pos]:
                    actors[actor_id] = _state_at(actor_columns, cursors[rank])
                    cursors[rank] += 1
            camera_fprs = {
                self.camera_vocab[cam_codes[i]]: float(cam_values[i])
                for i in range(cam_offsets[pos], cam_offsets[pos + 1])
            }
            steps.append(
                TraceStep(
                    time=float(times[pos]),
                    ego=_state_at(ego, pos),
                    actors=actors,
                    planner_mode=self.mode_vocab[mode_codes[pos]],
                    camera_fprs=camera_fprs,
                )
            )
        return steps

    def close(self) -> None:
        """Release the columns (and a store bundle's handles) now.

        Safe to call more than once. The evaluation results built from
        this trace (summaries, series) carry no views into the columns,
        so closing after a cell completes cannot invalidate them.
        """
        self._columns = None
        self._ego_trajectory = None
        self._actor_trajectories = {}
        self._steps = None
        closer, self._closer = self._closer, None
        if closer is not None:
            closer()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def duration(self) -> float:
        """Simulated time covered (seconds)."""
        start, end = self.time_span()
        return end - start

    def time_span(self) -> tuple[float, float]:
        """``(first, last)`` recorded step times."""
        times = self.columns["times"]
        return float(times[0]), float(times[-1])

    @property
    def has_collision(self) -> bool:
        """Whether any ego-actor collision occurred."""
        return bool(self.collisions)

    @property
    def first_collision_time(self) -> float | None:
        """Time of the first collision, or ``None``."""
        if not self.collisions:
            return None
        return min(event.time for event in self.collisions)

    def actor_ids(self) -> list[str]:
        """All actor ids appearing anywhere in the trace."""
        return list(self._actor_order)

    def actor_spec(self, actor_id: str) -> VehicleSpec:
        """The actor's physical spec (default spec when unrecorded)."""
        return self.actor_specs.get(actor_id, VehicleSpec())

    def default_l0(self) -> float:
        """The default processing latency for evaluating this trace.

        One frame period of the trace's recorded FPR setting — the
        ``l0`` both the offline evaluator and the online replay fall
        back to when none is given.

        Raises:
            EstimationError: if the trace has no recorded nominal FPR
                (it is the estimation layers that need the fallback).
        """
        if self.nominal_fpr is None:
            raise EstimationError(
                "trace has no nominal FPR; pass l0 explicitly"
            )
        return 1.0 / self.nominal_fpr

    def ego_trajectory(self) -> StateTrajectory:
        """The ego's motion over the adopted columns (cached)."""
        if self._ego_trajectory is None:
            columns = self.columns
            self._ego_trajectory = StateTrajectory.from_arrays(
                columns["times"], *columns["ego"]
            )
        return self._ego_trajectory

    def actor_trajectory(self, actor_id: str) -> StateTrajectory:
        """One actor's motion over its column slice (cached).

        Dense actors (present at every step, the simulator's case) adopt
        the shared time column; sparse ones gather their present-step
        times once.
        """
        if actor_id not in self._actor_trajectories:
            columns = self.columns
            if actor_id not in self._actor_order:
                raise TraceError(f"actor {actor_id!r} does not appear in trace")
            rank = self._actor_order.index(actor_id)
            lo, hi = self.actor_offsets[rank], self.actor_offsets[rank + 1]
            mask = columns["actor_masks"][rank]
            times = columns["times"]
            self._actor_trajectories[actor_id] = StateTrajectory.from_arrays(
                times if bool(mask.all()) else times[mask],
                *columns["actor_columns"][:, lo:hi],
            )
        return self._actor_trajectories[actor_id]

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def header_dict(self) -> dict:
        """JSON-ready scalar payload: :meth:`to_dict` without the steps."""
        return trace_header(
            self.scenario, self.dt, self.collisions, self.nominal_fpr,
            self.seed, self.ego_spec, self.actor_specs, self.metadata,
        )

    def to_dict(self) -> dict:
        """JSON-ready representation."""
        return {
            **self.header_dict(),
            "steps": [
                {
                    "time": step.time,
                    "ego": _state_to_dict(step.ego),
                    "actors": {
                        actor_id: _state_to_dict(state)
                        for actor_id, state in step.actors.items()
                    },
                    "planner_mode": step.planner_mode,
                    "camera_fprs": dict(step.camera_fprs),
                }
                for step in self.steps
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ScenarioTrace":
        """Inverse of :meth:`to_dict`."""
        try:
            steps = [
                TraceStep(
                    time=raw["time"],
                    ego=_state_from_dict(raw["ego"]),
                    actors={
                        actor_id: _state_from_dict(state)
                        for actor_id, state in raw["actors"].items()
                    },
                    planner_mode=raw.get("planner_mode", "cruise"),
                    camera_fprs=raw.get("camera_fprs", {}),
                )
                for raw in data["steps"]
            ]
            return cls(steps=steps, **_header_from_dict(data))
        except (KeyError, TypeError) as exc:
            raise TraceError(f"malformed trace data: {exc}") from exc

    def save_json(self, path: str | Path) -> None:
        """Write the trace to a JSON file."""
        Path(path).write_text(json.dumps(self.to_dict()))

    @classmethod
    def load_json(cls, path: str | Path) -> "ScenarioTrace":
        """Read a trace from a JSON file."""
        try:
            data = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise TraceError(f"invalid trace JSON in {path}: {exc}") from exc
        return cls.from_dict(data)


def _header_from_dict(data: Mapping) -> dict:
    """Constructor keywords from a :meth:`ScenarioTrace.header_dict`."""
    return {
        "scenario": data["scenario"],
        "dt": data["dt"],
        "collisions": [
            CollisionEvent(time=raw["time"], actor_id=raw["actor_id"])
            for raw in data.get("collisions", [])
        ],
        "nominal_fpr": data.get("nominal_fpr"),
        "seed": data.get("seed"),
        "ego_spec": _spec_from_dict(data["ego_spec"]),
        "actor_specs": {
            actor_id: _spec_from_dict(spec)
            for actor_id, spec in data.get("actor_specs", {}).items()
        },
        "metadata": data.get("metadata", {}),
    }


def trace_header(
    scenario: str,
    dt: float,
    collisions: Sequence[CollisionEvent] = (),
    nominal_fpr: float | None = None,
    seed: int | None = None,
    ego_spec: VehicleSpec | None = None,
    actor_specs: Mapping[str, VehicleSpec] | None = None,
    metadata: Mapping[str, object] | None = None,
) -> dict:
    """The :meth:`ScenarioTrace.header_dict` payload of a header.

    Takes the constructor's header arguments; what
    :meth:`ScenarioTrace.from_columns` reads back into them.
    """
    return {
        "scenario": scenario,
        "dt": dt,
        "nominal_fpr": nominal_fpr,
        "seed": seed,
        "ego_spec": _spec_to_dict(
            ego_spec if ego_spec is not None else VehicleSpec()
        ),
        "actor_specs": {
            actor_id: _spec_to_dict(spec)
            for actor_id, spec in (actor_specs or {}).items()
        },
        "metadata": metadata if metadata else {},
        "collisions": [
            {"time": event.time, "actor_id": event.actor_id}
            for event in collisions
        ],
    }


def _check_id(key: object, kind: str = "actor id") -> None:
    """Reject a non-string id before JSON would silently stringify it."""
    if not isinstance(key, str):
        raise TraceError(
            f"trace {kind}s must be strings, got {key!r} "
            f"({type(key).__name__}); JSON round-trips would "
            "silently convert it"
        )


def _canonical_metadata(value: object, where: str) -> object:
    """``value`` in JSON-canonical form, or :class:`TraceError`.

    JSON-canonical means the value survives ``json.dumps`` →
    ``json.loads`` as an *equal object*: dicts with string keys, lists
    (tuples are converted — that is the canonicalization), strings,
    bools, ints, floats (numpy scalars collapse to their Python
    equivalents) and ``None``. Anything else — sets, arrays, arbitrary
    objects — fails loudly here instead of silently mutating (or
    crashing) at save time.
    """
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, float)):
        return value
    # Numpy scalars json-fail (or worse, change type); collapse them.
    item = getattr(value, "item", None)
    if item is not None and getattr(value, "shape", None) == ():
        return _canonical_metadata(item(), where)
    if isinstance(value, (list, tuple)):
        return [
            _canonical_metadata(entry, f"{where}[{pos}]")
            for pos, entry in enumerate(value)
        ]
    if isinstance(value, Mapping):
        out = {}
        for key, entry in value.items():
            if not isinstance(key, str):
                raise TraceError(
                    f"trace {where} keys must be strings, got {key!r}"
                )
            out[key] = _canonical_metadata(entry, f"{where}[{key!r}]")
        return out
    raise TraceError(
        f"trace {where} value {value!r} ({type(value).__name__}) "
        "does not survive a JSON round trip"
    )


def _state_row(state: VehicleState) -> tuple[float, ...]:
    """A state's column entries: x, y, heading, speed, accel."""
    position = state.position
    return position.x, position.y, state.heading, state.speed, state.accel


def _row_columns(rows: Sequence[tuple[float, ...]]) -> np.ndarray:
    """:func:`_state_row` rows as a C-ordered ``(5, len(rows))`` block."""
    return np.ascontiguousarray(np.array(rows, dtype=float).reshape(-1, 5).T)


def _state_at(columns: np.ndarray, col: int) -> VehicleState:
    return VehicleState(
        position=Vec2(float(columns[0, col]), float(columns[1, col])),
        heading=float(columns[2, col]),
        speed=float(columns[3, col]),
        accel=float(columns[4, col]),
    )


def _state_to_dict(state: VehicleState) -> dict:
    return {
        "x": state.position.x,
        "y": state.position.y,
        "heading": state.heading,
        "speed": state.speed,
        "accel": state.accel,
    }


def _state_from_dict(data: Mapping) -> VehicleState:
    return VehicleState(
        position=Vec2(data["x"], data["y"]),
        heading=data["heading"],
        speed=data["speed"],
        accel=data.get("accel", 0.0),
    )


def _spec_to_dict(spec: VehicleSpec) -> dict:
    return {
        "length": spec.length,
        "width": spec.width,
        "wheelbase": spec.wheelbase,
        "max_accel": spec.max_accel,
        "max_decel": spec.max_decel,
        "max_speed": spec.max_speed,
    }


def _spec_from_dict(data: Mapping) -> VehicleSpec:
    return VehicleSpec(
        length=data["length"],
        width=data["width"],
        wheelbase=data["wheelbase"],
        max_accel=data["max_accel"],
        max_decel=data["max_decel"],
        max_speed=data["max_speed"],
    )
