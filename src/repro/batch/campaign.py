"""Campaign specs: the grids a batch evaluation sweeps.

The paper's Table 1 / Figures 4-8 story is a *campaign* — many scenarios
x jitter seeds x fixed FPR settings (and optionally Zhuyi parameter
variants), each run end to end through the closed loop and the offline
evaluator. A :class:`Campaign` declares that grid once; expansion into
:class:`RunSpec` entries is deterministic, so a parallel executor and a
sequential loop visit the exact same runs in the exact same order.

A replay plan (:class:`repro.store.replay.ReplayPlan`) is the other kind
of grid: explicit stored cells instead of a scenario x seed x FPR
product. Both share :class:`Grid` — settings validation, expansion and
cell-stripe sharding — so the campaign runner executes either.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Mapping

from repro.core.aggregation import (
    Aggregator,
    MaxAggregator,
    MeanAggregator,
    PercentileAggregator,
)
from repro.core.latency import BACKENDS
from repro.core.parameters import ZhuyiParams
from repro.errors import ConfigurationError
from repro.perception.noise import PerceptionNoise
from repro.perception.pipeline import check_fpr
from repro.perception.sensor import ANALYZED_CAMERAS, default_rig

#: Variant name used when a campaign sweeps no parameter overrides.
DEFAULT_VARIANT = "default"

#: Bumped when a campaign line's field set changes incompatibly.
#: 1: single header line carrying workers/elapsed, runs written at end.
#: 2: bare header, streamed run lines, ``completed`` footer, shard tag.
SCHEMA_VERSION = 2

#: Named predictors an online variant may request. ``maneuver`` gets
#: the cell's road but no target lane, so it rolls out its four straight
#: hypotheses and never a lane change.
PREDICTORS = ("cv", "ca", "maneuver")

#: Former ``ZhuyiParams`` fields that headers written before their
#: removal still carry, each with the one value every recorded run
#: used: lateral collision gating on, no ego speed cap.
_RETIRED_PARAMS = {"gate_lateral": True, "ego_speed_cap": None}


def build_predictor(spec: str, road):
    """The trajectory predictor an online variant's ``predictor`` names."""
    from repro.prediction.constant_accel import ConstantAccelerationPredictor
    from repro.prediction.constant_velocity import ConstantVelocityPredictor
    from repro.prediction.maneuver import ManeuverPredictor

    if spec == "cv":
        return ConstantVelocityPredictor()
    if spec == "ca":
        return ConstantAccelerationPredictor()
    if spec == "maneuver":
        return ManeuverPredictor(road=road)
    raise ConfigurationError(
        f"unknown predictor {spec!r}; choose from {PREDICTORS}"
    )


def build_aggregator(spec: str | None) -> Aggregator:
    """Aggregator from a spec string: ``max``, ``mean``,
    ``percentile`` or ``percentile:Q`` (default: the paper's 99th
    percentile)."""
    if spec is None or spec == "percentile":
        return PercentileAggregator()
    if spec == "max":
        return MaxAggregator()
    if spec == "mean":
        return MeanAggregator()
    if spec.startswith("percentile:"):
        try:
            return PercentileAggregator(n=float(spec.split(":", 1)[1]))
        except ValueError as exc:
            raise ConfigurationError(
                f"bad percentile in aggregator spec {spec!r}"
            ) from exc
    raise ConfigurationError(
        f"unknown aggregator {spec!r}; use max, mean, percentile "
        "or percentile:Q"
    )


@dataclass(frozen=True)
class ParamVariant:
    """One named estimation configuration a grid runs per cell.

    ``predictor=None`` is an *offline* variant: the offline evaluator
    under ``params`` (``None`` means the model defaults, the common
    case). A named ``predictor`` makes it an *online* variant:
    :meth:`OnlineEstimator.replay <repro.core.online.OnlineEstimator.replay>`
    with that predictor and the ``aggregator`` spec (Equation 4's
    reduction). The name tags every run so result files stay
    self-describing.
    """

    name: str
    params: ZhuyiParams | None = None
    predictor: str | None = None
    aggregator: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a parameter variant needs a name")
        if self.predictor is not None and self.predictor not in PREDICTORS:
            raise ConfigurationError(
                f"unknown predictor {self.predictor!r}; "
                f"choose from {PREDICTORS}"
            )
        if self.aggregator is not None and self.predictor is None:
            raise ConfigurationError(
                "aggregator specs apply to online variants only "
                "(offline evaluation has no Equation 4 hypothesis set "
                "to reduce)"
            )
        build_aggregator(self.aggregator)  # validate the spec eagerly

    def resolved_params(self) -> ZhuyiParams:
        return self.params if self.params is not None else ZhuyiParams()

    def to_dict(self) -> dict:
        """JSON-ready form; ``predictor``/``aggregator`` only when set."""
        data: dict = {
            "name": self.name,
            "params": None if self.params is None else asdict(self.params),
        }
        if self.predictor is not None:
            data["predictor"] = self.predictor
        if self.aggregator is not None:
            data["aggregator"] = self.aggregator
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "ParamVariant":
        """Inverse of :meth:`to_dict`.

        A retired params key loads at the value every recorded run used
        and is dropped.

        Raises:
            ConfigurationError: a retired key at any other value.
        """
        params = data.get("params")
        if params is not None:
            params = dict(params)
            for key, value in _RETIRED_PARAMS.items():
                found = params.pop(key, value)
                if found is not value:
                    raise ConfigurationError(
                        f"variant {data['name']!r}: params key {key!r} "
                        f"is retired; only {json.dumps(value)} loads, got "
                        f"{json.dumps(found)}"
                    )
            params = ZhuyiParams(**params)
        return cls(
            name=data["name"],
            params=params,
            predictor=data.get("predictor"),
            aggregator=data.get("aggregator"),
        )


@dataclass(frozen=True)
class RunSpec:
    """One fully-determined run of a campaign grid.

    Everything a worker process needs travels in this (picklable)
    record; the run outcome is a pure function of it, which is what
    makes parallel and sequential campaigns byte-identical.
    """

    index: int
    scenario: str
    seed: int
    fpr: float
    variant: str
    params: ZhuyiParams | None
    stride: float
    provisioned_fpr: float
    cameras: tuple[str, ...]
    backend: str = "batched"
    #: The cell's evaluation-time perception noise, already re-seeded
    #: for this (scenario, seed, fpr) cell via
    #: :meth:`PerceptionNoise.for_cell` — a pure function of the cell
    #: coordinates, never of the run index or shard layout.
    noise: PerceptionNoise | None = None
    #: The online variant's predictor and aggregator specs (see
    #: :class:`ParamVariant`); ``predictor=None`` evaluates offline.
    predictor: str | None = None
    aggregator: str | None = None

    def resolved_params(self) -> ZhuyiParams:
        """The Zhuyi constants for this run."""
        return self.params if self.params is not None else ZhuyiParams()


class Grid:
    """What every grid kind shares: settings, expansion, sharding.

    A grid is a sequence of (scenario, seed, fpr) :attr:`cells` crossed
    with named :class:`ParamVariant` estimation configurations, plus the
    evaluation settings every run shares. Subclasses are frozen
    dataclasses holding ``variants``, ``stride``, ``provisioned_fpr``,
    ``cameras``, ``backend`` and ``noise`` fields and a ``cells``
    sequence, and name their JSONL header: ``KIND`` (the header's
    ``kind``), ``SCHEMA`` (its current schema version) and ``PAYLOAD``
    (the header key holding :meth:`to_dict`).

    Determinism guarantees: :meth:`runs` expands the grid cell-major,
    then variant, and stamps each run with its index, so two processes
    given equal grids — including one reconstructed from a JSONL header
    — agree on every run's identity. :meth:`shard` partitions that same
    expansion, which is what makes shard files mergeable.
    """

    def _check_settings(self) -> None:
        """Reject settings no run could honour, before any run executes."""
        if not self.cells:
            raise ConfigurationError(
                "a grid needs at least one (scenario, seed, fpr) cell"
            )
        if len(set(self.cells)) != len(self.cells):
            raise ConfigurationError(
                f"duplicate cells in {self.KIND} grid: {list(self.cells)}"
            )
        if not self.variants:
            raise ConfigurationError("a grid needs at least one variant")
        names = [variant.name for variant in self.variants]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate variant names: {names}")
        if not self.stride > 0.0:
            raise ConfigurationError(
                f"stride must be positive, got {self.stride}"
            )
        if not self.provisioned_fpr > 0.0:
            raise ConfigurationError(
                f"provisioned FPR must be positive, got {self.provisioned_fpr}"
            )
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; choose from {BACKENDS}"
            )
        known = default_rig().names
        cameras = list(self.cameras)
        if (
            not cameras
            or len(set(cameras)) != len(cameras)
            or not set(cameras) <= set(known)
        ):
            raise ConfigurationError(
                f"cameras must be distinct names from {list(known)}, "
                f"got {cameras}"
            )

    @property
    def size(self) -> int:
        """Total number of runs in the grid."""
        return len(self.cells) * len(self.variants)

    def runs(self) -> list[RunSpec]:
        """Expand the grid into per-run specs.

        Returns:
            One :class:`RunSpec` per (cell, variant) in deterministic
            cell-major order, each stamped with its index — the identity
            used by streaming files, resume, sharding and merge.
        """
        specs: list[RunSpec] = []
        for scenario, seed, fpr in self.cells:
            cell_noise = (
                None
                if self.noise is None
                else self.noise.for_cell(scenario, int(seed), float(fpr))
            )
            for variant in self.variants:
                specs.append(
                    RunSpec(
                        index=len(specs),
                        scenario=scenario,
                        seed=int(seed),
                        fpr=float(fpr),
                        variant=variant.name,
                        params=variant.params,
                        stride=self.stride,
                        provisioned_fpr=self.provisioned_fpr,
                        cameras=tuple(self.cameras),
                        backend=self.backend,
                        noise=cell_noise,
                        predictor=variant.predictor,
                        aggregator=variant.aggregator,
                    )
                )
        return specs

    def shard(self, index: int, count: int) -> list[RunSpec]:
        """Deterministically partition the run grid into ``count`` parts.

        The grid is split by (scenario, seed, fpr) **cell**: cell ``j``
        (in grid order) goes to shard ``j % count``, and a shard owns
        *all* variants of its cells. The stride spreads scenarios and
        seeds evenly over shards (no shard gets all the expensive
        scenarios), while keeping variants together preserves the
        cross-variant trace cache — each shard still obtains its cells'
        traces once and evaluates every variant from them.

        Determinism guarantees: the partition is a pure function of the
        grid — the union of all shards is exactly :meth:`runs`, shards
        never overlap, and each run keeps its full-grid index — which
        is what lets
        :meth:`CampaignResult.merge <repro.batch.results.CampaignResult.merge>`
        stitch shard files back into the monolithic result.

        Args:
            index: which shard to take, ``0 <= index < count``.
            count: total number of shards; at most the number of
                (scenario, seed, fpr) cells, so no shard is empty.

        Returns:
            The shard's runs, ascending by full-grid index.
        """
        if count < 1:
            raise ConfigurationError(
                f"shard count must be at least 1, got {count}"
            )
        if count > len(self.cells):
            raise ConfigurationError(
                f"cannot split {len(self.cells)} (scenario, seed, fpr) "
                f"cells into {count} shards"
            )
        if not 0 <= index < count:
            raise ConfigurationError(
                f"shard index must be in [0, {count}), got {index}"
            )
        variants = len(self.variants)
        return [
            spec
            for spec in self.runs()
            if (spec.index // variants) % count == index
        ]

    def header(self, store_root: str | None = None) -> dict:
        """The JSONL header line of a file of this grid's runs
        (``store_root`` names the trace store a replay reads)."""
        return {
            "kind": self.KIND,
            "schema": self.SCHEMA,
            self.PAYLOAD: self.to_dict(),
        }

    def row(self, summary) -> dict:
        """The JSONL run line of one :class:`RunSummary` of this grid."""
        return {"kind": "run", **summary.to_dict()}

    def _settings_dict(self, variants: list[dict]) -> dict:
        """The shared tail of :meth:`to_dict`."""
        return {
            "variants": variants,
            "stride": self.stride,
            "provisioned_fpr": self.provisioned_fpr,
            "cameras": list(self.cameras),
            "backend": self.backend,
            "noise": None if self.noise is None else self.noise.to_dict(),
        }

    @staticmethod
    def _settings_from_dict(data: Mapping) -> dict:
        """Constructor keywords for the shared settings of a header.

        Headers written before the backend selector existed ran the
        only solver there was — the scalar loop's equal-output successor
        — so the backend defaults to it. Likewise, headers predating
        evaluation-time noise were always noise-free.
        """
        return dict(
            variants=tuple(
                ParamVariant.from_dict(raw) for raw in data["variants"]
            ),
            stride=float(data["stride"]),
            provisioned_fpr=float(data["provisioned_fpr"]),
            cameras=tuple(data["cameras"]),
            backend=data.get("backend", "batched"),
            noise=(
                None
                if data.get("noise") is None
                else PerceptionNoise.from_dict(data["noise"])
            ),
        )


@dataclass(frozen=True)
class Campaign(Grid):
    """A scenario x seed x FPR (x parameter-variant) evaluation grid.

    Its cells are the scenario x seed x FPR product in that nesting
    order; :meth:`runs` and :meth:`shard` come from :class:`Grid`.

    Attributes:
        scenarios: catalog names (validated against the registry,
            including any ``speed_sweep`` expansions already applied).
        seeds: jitter seeds; each seed is one choreography.
        fprs: fixed perception rates the closed loop runs at.
        variants: named estimation configurations (default: just the
            paper constants, offline).
        stride: offline evaluation stride (seconds); the estimation
            period of online variants.
        provisioned_fpr: per-camera provision for the fraction column.
        cameras: cameras entering the total-demand summaries (names of
            the :func:`~repro.perception.sensor.default_rig` cameras).
        backend: latency-solver backend every run evaluates with:
            the ``"batched"`` array kernel, the ``"scalar"`` reference
            loop, or ``"crosstrace"`` — the batched kernels lifted
            across whole blocks of cells, solved together per worker
            via :func:`repro.batch.runner.execute_supercell`.
            Summaries are byte-identical across all three.
        noise: optional evaluation-time stochastic perception
            (:class:`~repro.perception.noise.PerceptionNoise`). Each
            (scenario, seed, fpr) cell evaluates under a child seed
            derived from the root seed and the cell coordinates
            (:meth:`PerceptionNoise.for_cell`), so cells decorrelate
            while summaries stay byte-identical across backends,
            shard partitions, worker counts and kill/resume cycles.
    """

    KIND = "campaign"
    SCHEMA = SCHEMA_VERSION
    PAYLOAD = "grid"

    scenarios: tuple[str, ...]
    seeds: tuple[int, ...] = (0,)
    fprs: tuple[float, ...] = (30.0,)
    variants: tuple[ParamVariant, ...] = (ParamVariant(DEFAULT_VARIANT),)
    stride: float = 0.05
    provisioned_fpr: float = 30.0
    cameras: tuple[str, ...] = ANALYZED_CAMERAS
    backend: str = "batched"
    noise: PerceptionNoise | None = None

    def __post_init__(self) -> None:
        from repro.scenarios.catalog import SCENARIOS, ensure_scenario

        if not self.scenarios:
            raise ConfigurationError("a campaign needs at least one scenario")
        if not self.seeds or not self.fprs:
            raise ConfigurationError(
                "campaign seeds and fprs must be non-empty"
            )
        for fpr in self.fprs:
            check_fpr(fpr)
        for name in self.scenarios:
            # ensure_scenario re-derives speed-sweep variants on demand,
            # so a campaign reloaded from JSONL (or validated in a fresh
            # process) accepts the names its header references.
            if not ensure_scenario(name):
                raise ConfigurationError(
                    f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}"
                )
        for label, values in (
            ("scenario", self.scenarios),
            ("seed", self.seeds),
            ("fpr", self.fprs),
        ):
            if len(set(values)) != len(values):
                raise ConfigurationError(
                    f"duplicate {label} entries in campaign grid: {list(values)}"
                )
        self._check_settings()

    @property
    def cells(self) -> tuple[tuple[str, int, float], ...]:
        """The (scenario, seed, fpr) product, scenario-major."""
        return tuple(
            (scenario, int(seed), float(fpr))
            for scenario in self.scenarios
            for seed in self.seeds
            for fpr in self.fprs
        )

    def to_dict(self) -> dict:
        """JSON-ready grid description (the JSONL header payload)."""
        return {
            "scenarios": list(self.scenarios),
            "seeds": list(self.seeds),
            "fprs": list(self.fprs),
            **self._settings_dict(
                [variant.to_dict() for variant in self.variants]
            ),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Campaign":
        """Inverse of :meth:`to_dict`."""
        return cls(
            scenarios=tuple(data["scenarios"]),
            seeds=tuple(int(seed) for seed in data["seeds"]),
            fprs=tuple(float(fpr) for fpr in data["fprs"]),
            **cls._settings_from_dict(data),
        )
