"""Campaign specs: the grid a batch evaluation sweeps.

The paper's Table 1 / Figures 4-8 story is a *campaign* — many scenarios
x jitter seeds x fixed FPR settings (and optionally Zhuyi parameter
variants), each run end to end through the closed loop and the offline
evaluator. A :class:`Campaign` declares that grid once; expansion into
:class:`RunSpec` entries is deterministic, so a parallel executor and a
sequential loop visit the exact same runs in the exact same order.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.core.latency import BACKENDS
from repro.core.parameters import ZhuyiParams
from repro.errors import ConfigurationError
from repro.perception.noise import PerceptionNoise
from repro.perception.sensor import ANALYZED_CAMERAS

#: Variant name used when a campaign sweeps no parameter overrides.
DEFAULT_VARIANT = "default"


@dataclass(frozen=True)
class ParamVariant:
    """A named :class:`ZhuyiParams` override swept by a campaign.

    ``params = None`` means the model defaults (the common case); the
    name still tags every run so result files stay self-describing.
    """

    name: str
    params: ZhuyiParams | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a parameter variant needs a name")


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

    def resolved_params(self) -> ZhuyiParams:
        """The Zhuyi constants for this run."""
        return self.params if self.params is not None else ZhuyiParams()


@dataclass(frozen=True)
class Campaign:
    """A scenario x seed x FPR (x parameter-variant) evaluation grid.

    Determinism guarantees: :meth:`runs` expands the grid in a fixed
    order (scenario-major, then seed, fpr, variant) and stamps each run
    with its index, so two processes given equal campaigns — including
    one reconstructed from a JSONL header via :meth:`from_dict` — agree
    on every run's identity. :meth:`shard` partitions that same
    expansion, which is what makes shard files mergeable.

    Attributes:
        scenarios: catalog names (validated against the registry,
            including any ``speed_sweep`` expansions already applied).
        seeds: jitter seeds; each seed is one choreography.
        fprs: fixed perception rates the closed loop runs at.
        variants: named Zhuyi parameter overrides (default: just the
            paper constants).
        stride: offline evaluation stride (seconds).
        provisioned_fpr: per-camera provision for the fraction column.
        cameras: cameras entering the total-demand summaries.
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
        if not self.seeds or not self.fprs or not self.variants:
            raise ConfigurationError(
                "campaign seeds, fprs and variants must be non-empty"
            )
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
            ("variant name", [variant.name for variant in self.variants]),
        ):
            if len(set(values)) != len(values):
                raise ConfigurationError(
                    f"duplicate {label} entries in campaign grid: {list(values)}"
                )
        if self.stride <= 0.0:
            raise ConfigurationError(f"stride must be positive, got {self.stride}")
        if self.provisioned_fpr <= 0.0:
            raise ConfigurationError("provisioned FPR must be positive")
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; choose from {BACKENDS}"
            )

    @property
    def size(self) -> int:
        """Total number of runs in the grid."""
        return (
            len(self.scenarios)
            * len(self.seeds)
            * len(self.fprs)
            * len(self.variants)
        )

    def runs(self) -> list[RunSpec]:
        """Expand the grid into per-run specs.

        Returns:
            One :class:`RunSpec` per grid cell in deterministic
            (scenario, seed, fpr, variant) order, each stamped with its
            index — the identity used by streaming files, resume,
            sharding and merge.
        """
        specs: list[RunSpec] = []
        for scenario in self.scenarios:
            for seed in self.seeds:
                for fpr in self.fprs:
                    cell_noise = (
                        None
                        if self.noise is None
                        else self.noise.for_cell(
                            scenario, int(seed), float(fpr)
                        )
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
                            )
                        )
        return specs

    def shard(self, index: int, count: int) -> list[RunSpec]:
        """Deterministically partition the run grid into ``count`` parts.

        The grid is split by (scenario, seed, fpr) **cell**: cell ``j``
        (in grid order) goes to shard ``j % count``, and a shard owns
        *all* parameter variants of its cells. The stride spreads
        scenarios and seeds evenly over shards (no shard gets all the
        expensive scenarios), while keeping variants together preserves
        the cross-variant trace cache — each shard still simulates its
        cells once and evaluates every variant from the cached trace.

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
        cells = self.size // len(self.variants)
        if count < 1:
            raise ConfigurationError(
                f"shard count must be at least 1, got {count}"
            )
        if count > cells:
            raise ConfigurationError(
                f"cannot split {cells} (scenario, seed, fpr) cells "
                f"into {count} shards"
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

    def to_dict(self) -> dict:
        """JSON-ready grid description (the JSONL header payload)."""
        return {
            "scenarios": list(self.scenarios),
            "seeds": list(self.seeds),
            "fprs": list(self.fprs),
            "variants": [
                {
                    "name": variant.name,
                    "params": (
                        None
                        if variant.params is None
                        else asdict(variant.params)
                    ),
                }
                for variant in self.variants
            ],
            "stride": self.stride,
            "provisioned_fpr": self.provisioned_fpr,
            "cameras": list(self.cameras),
            "backend": self.backend,
            "noise": None if self.noise is None else self.noise.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Campaign":
        """Inverse of :meth:`to_dict`."""
        return cls(
            scenarios=tuple(data["scenarios"]),
            seeds=tuple(int(seed) for seed in data["seeds"]),
            fprs=tuple(float(fpr) for fpr in data["fprs"]),
            variants=tuple(
                ParamVariant(
                    name=raw["name"],
                    params=(
                        None
                        if raw.get("params") is None
                        else ZhuyiParams(**raw["params"])
                    ),
                )
                for raw in data["variants"]
            ),
            stride=float(data["stride"]),
            provisioned_fpr=float(data["provisioned_fpr"]),
            cameras=tuple(data["cameras"]),
            # Headers written before the backend selector existed ran
            # the only solver there was — the scalar loop's equal-output
            # successor — so default to it. Likewise, headers predating
            # evaluation-time noise were always noise-free.
            backend=data.get("backend", "batched"),
            noise=(
                None
                if data.get("noise") is None
                else PerceptionNoise.from_dict(data["noise"])
            ),
        )

