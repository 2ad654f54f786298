"""The evolutionary scenario search: generations as campaigns.

One generation = one :class:`~repro.batch.campaign.Campaign` over the
population's registered genome scenarios (plus the family's base
scenario as the fitness baseline), executed by
:class:`~repro.batch.runner.CampaignRunner` into
``gen_<NNN>.jsonl`` under the search's output directory. Everything the
campaign layer guarantees is inherited wholesale: process-pool workers,
any latency backend, `--store` simulate-once warm reuse (elites and
re-discovered genomes cost nothing to re-evaluate), kill-safe streamed
JSONL — and because a generation file is an ordinary campaign file, a
killed search resumes by finishing the interrupted generation's missing
cells and re-deriving everything after it.

Determinism: the search trajectory is a pure function of
``(config.seed, config)``. Every stochastic choice — initial genomes,
tournament picks, mutation offsets — is a counter-RNG draw keyed by
``(generation, slot, gene)`` coordinates (streams ``fuzz.init`` /
``fuzz.select`` / ``fuzz.mutate``), and fitness comes from campaign
rows that are themselves byte-identical across backends, worker counts,
shards and resume cycles. Re-running the same search therefore rewrites
the same archive byte for byte.

The archive (``archive.json``) records the top genomes as
``{"name", "family", "params", "fitness", "generation"}`` entries;
``repro campaign --fuzz-archive archive.json`` (or the
``REPRO_FUZZ_RECIPES`` environment variable) rebuilds them as catalog
entries anywhere, turning a discovered worst case into a permanent
regression workload. ``search.json`` records the per-generation
trajectory; elitism makes its ``best_so_far`` column monotonically
non-decreasing, which the CI smoke job asserts.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.batch.campaign import Campaign
from repro.batch.results import CampaignResult
from repro.batch.runner import CampaignRunner
from repro.core.latency import BACKENDS
from repro.core.rng import (
    STREAM_FUZZ_INIT,
    STREAM_FUZZ_MUTATE,
    STREAM_FUZZ_SELECT,
    counter_normal,
    counter_uniform,
)
from repro.errors import ConfigurationError
from repro.fuzz.fitness import (
    FITNESS_CHOICES,
    score_disagreement,
    score_key,
    score_rows,
)
from repro.perception.pipeline import check_fpr
from repro.scenarios.fuzzed import (
    RECIPES_ENV,
    fuzzed_recipe,
    fuzzed_recipes,
    get_family,
    register_fuzzed,
)

#: Schema version of archive.json / search.json payloads.
ARCHIVE_SCHEMA = 1

ProgressHook = Callable[[str], None]


@dataclass(frozen=True)
class FuzzConfig:
    """One evolutionary search, fully specified.

    Attributes:
        family: fuzz family to search (see ``FUZZ_FAMILIES``).
        population: genomes per generation.
        generations: generations to run.
        elite: top genomes copied unchanged into the next generation
            (what makes best-so-far monotone — and, under ``--store``,
            free to re-evaluate).
        tournament: candidates per tournament selection pick.
        mutation_scale: Gaussian mutation sigma as a fraction of each
            gene's range.
        seed: root seed of the whole search trajectory.
        fitness: fitness function name (:data:`FITNESS_CHOICES`).
        sim_seeds: scenario jitter seeds each genome is evaluated at.
        fprs: fixed FPR settings each genome is evaluated at.
        stride: offline evaluation stride (seconds).
        backend: latency backend generations run under.
        provisioned_fpr: provision used for collision scoring.
        archive_size: genomes kept in the final archive.
    """

    family: str
    population: int = 16
    generations: int = 8
    elite: int = 2
    tournament: int = 3
    mutation_scale: float = 0.15
    seed: int = 0
    fitness: str = "latency"
    sim_seeds: tuple[int, ...] = (0,)
    fprs: tuple[float, ...] = (30.0,)
    stride: float = 0.05
    backend: str = "batched"
    provisioned_fpr: float = 30.0
    archive_size: int = 5

    def __post_init__(self) -> None:
        get_family(self.family)
        if self.population < 2:
            raise ConfigurationError("population must be at least 2")
        if self.generations < 1:
            raise ConfigurationError("generations must be at least 1")
        if not 0 <= self.elite < self.population:
            raise ConfigurationError(
                f"elite must be in [0, population), got {self.elite}"
            )
        if self.tournament < 1:
            raise ConfigurationError("tournament size must be at least 1")
        if not 0.0 < self.mutation_scale <= 1.0:
            raise ConfigurationError(
                "mutation scale must be in (0, 1] of the gene range, "
                f"got {self.mutation_scale}"
            )
        if self.fitness not in FITNESS_CHOICES:
            raise ConfigurationError(
                f"unknown fitness {self.fitness!r}; "
                f"choose from {FITNESS_CHOICES}"
            )
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; choose from {BACKENDS}"
            )
        if not self.sim_seeds or not self.fprs:
            raise ConfigurationError(
                "fuzz sim_seeds and fprs must be non-empty"
            )
        for fpr in self.fprs:
            check_fpr(fpr)
        if self.stride <= 0.0:
            raise ConfigurationError(
                f"stride must be positive, got {self.stride}"
            )
        if self.archive_size < 1:
            raise ConfigurationError("archive size must be at least 1")

    def to_dict(self) -> dict:
        """JSON-ready description (recorded in search.json)."""
        return {
            "family": self.family,
            "population": self.population,
            "generations": self.generations,
            "elite": self.elite,
            "tournament": self.tournament,
            "mutation_scale": self.mutation_scale,
            "seed": self.seed,
            "fitness": self.fitness,
            "sim_seeds": list(self.sim_seeds),
            "fprs": list(self.fprs),
            "stride": self.stride,
            "backend": self.backend,
            "provisioned_fpr": self.provisioned_fpr,
            "archive_size": self.archive_size,
        }


@dataclass
class FuzzResult:
    """Outcome of one search: archive entries plus the trajectory."""

    config: FuzzConfig
    base_fitness: float | None
    archive: list[dict]
    per_generation: list[dict]
    archive_path: Path
    search_path: Path
    generation_files: list[Path] = field(default_factory=list)

    @property
    def best(self) -> dict | None:
        """The archive's top entry (highest fitness), if any."""
        return self.archive[0] if self.archive else None


# ----------------------------------------------------------------------
# the counter-keyed evolutionary operators (pure functions of the key)
# ----------------------------------------------------------------------


def initial_population(config: FuzzConfig) -> list[dict]:
    """Generation 0: the family defaults plus uniform random genomes.

    Slot 0 is always the base tuning (the search starts from the
    catalog's own point); slots 1.. draw each gene uniformly in bounds
    from the ``fuzz.init`` stream keyed by (slot, gene).
    """
    space = get_family(config.family).space
    population = [space.defaults()]
    for slot in range(1, config.population):
        genome: dict = {}
        for index, gene in enumerate(space.genes):
            u = float(
                counter_uniform(config.seed, STREAM_FUZZ_INIT, slot, index)
            )
            genome[gene.name] = gene.quantize(
                gene.low + u * (gene.high - gene.low)
            )
        population.append(genome)
    return population


def tournament_pick(
    config: FuzzConfig,
    scores: list[float | None],
    generation: int,
    child: int,
) -> int:
    """Index of the tournament winner for one child slot.

    Draws ``tournament`` candidate indices from the ``fuzz.select``
    stream keyed by (generation, child, round); the best-scoring
    candidate wins, lower slot breaking ties — fully deterministic.
    """
    best = -1
    for contest in range(config.tournament):
        u = float(
            counter_uniform(
                config.seed, STREAM_FUZZ_SELECT, generation, child, contest
            )
        )
        index = min(int(u * len(scores)), len(scores) - 1)
        if best < 0 or (score_key(scores[index]), -index) > (
            score_key(scores[best]),
            -best,
        ):
            best = index
    return best


def mutate(
    config: FuzzConfig, genome: dict, generation: int, child: int
) -> dict:
    """Bounded Gaussian mutation of every gene of one child genome.

    Each gene moves by ``mutation_scale * range * N(0, 1)`` with the
    normal drawn from the ``fuzz.mutate`` stream keyed by
    (generation, child, gene), then clips back into bounds (integer
    genes re-round). Mutating every gene with independent draws keeps
    the operator order-free: no per-child "how many genes" draw whose
    consumption order could matter.
    """
    space = get_family(config.family).space
    mutated: dict = {}
    for index, gene in enumerate(space.genes):
        offset = float(
            counter_normal(
                config.seed, STREAM_FUZZ_MUTATE, generation, child, index
            )
        )
        value = (
            float(genome[gene.name])
            + config.mutation_scale * (gene.high - gene.low) * offset
        )
        mutated[gene.name] = gene.quantize(value)
    return mutated


def next_population(
    config: FuzzConfig,
    population: list[dict],
    scores: list[float | None],
    generation: int,
) -> list[dict]:
    """Elites unchanged, then tournament-selected mutated children."""
    order = sorted(
        range(len(population)), key=lambda i: (-score_key(scores[i]), i)
    )
    elites = [dict(population[i]) for i in order[: config.elite]]
    children = [
        mutate(
            config,
            population[tournament_pick(config, scores, generation, child)],
            generation,
            child,
        )
        for child in range(config.population - config.elite)
    ]
    return elites + children


# ----------------------------------------------------------------------
# the search driver
# ----------------------------------------------------------------------


def _write_json(path: Path, payload: dict) -> None:
    """Deterministic, atomic JSON: sorted keys, trailing newline."""
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _run_generation(
    runner: CampaignRunner,
    campaign: Campaign,
    path: Path,
) -> CampaignResult:
    """Execute (or finish) one generation campaign file.

    An existing file is resumed — the fuzz-level resume story: finished
    generations are pure reloads, the interrupted one executes only its
    missing cells. A file whose grid does not match the expected
    campaign is a different search (other seed/config) and is refused
    rather than silently overwritten.
    """
    if path.exists():
        partial = CampaignResult.load_jsonl(path)
        if partial.campaign != campaign:
            raise ConfigurationError(
                f"existing generation file {path} was written by a "
                "different fuzz configuration or seed; use a fresh "
                "output directory"
            )
        return runner.resume(path, partial=partial)
    return runner.run(campaign, out=str(path))


def run_fuzz(
    config: FuzzConfig,
    out_dir: str | Path,
    runner: CampaignRunner | None = None,
    progress: ProgressHook | None = None,
) -> FuzzResult:
    """Run one evolutionary search and write its artifacts.

    Args:
        config: the search specification.
        out_dir: directory receiving ``gen_<NNN>.jsonl`` generation
            campaigns, ``recipes_gen<NNN>.json`` genome sidecars,
            ``archive.json`` and ``search.json``. Re-running with the
            same config over the same directory resumes/reproduces.
        runner: campaign runner to execute generations with (workers,
            trace store); a fresh single-worker runner by default.
        progress: called with one human-readable line per generation.

    Returns:
        The :class:`FuzzResult` with the archive and trajectory.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    runner = runner if runner is not None else CampaignRunner()
    family = get_family(config.family)
    population = initial_population(config)
    archive: dict[str, dict] = {}
    per_generation: list[dict] = []
    generation_files: list[Path] = []
    best_so_far: float | None = None
    base_fitness: float | None = None
    previous_env = os.environ.get(RECIPES_ENV)
    try:
        for generation in range(config.generations):
            names = [
                register_fuzzed(config.family, genome)
                for genome in population
            ]
            recipes_path = out / f"recipes_gen{generation:03d}.json"
            _write_json(recipes_path, fuzzed_recipes(sorted(set(names))))
            # Spawn-method campaign workers rebuild this generation's
            # genomes from the sidecar; fork workers inherit them.
            os.environ[RECIPES_ENV] = str(recipes_path)

            unique = list(dict.fromkeys(names))
            campaign = Campaign(
                scenarios=(family.base_scenario, *unique),
                seeds=config.sim_seeds,
                fprs=config.fprs,
                stride=config.stride,
                provisioned_fpr=config.provisioned_fpr,
                backend=config.backend,
            )
            gen_path = out / f"gen_{generation:03d}.jsonl"
            result = _run_generation(runner, campaign, gen_path)
            generation_files.append(gen_path)

            reference: CampaignResult | None = None
            if config.fitness == "disagreement":
                # The adversarial parity search evaluates every cell a
                # second time under the scalar reference backend (or
                # batched, when scalar *is* the configured backend).
                ref_backend = (
                    "batched" if config.backend == "scalar" else "scalar"
                )
                ref_campaign = Campaign(
                    scenarios=campaign.scenarios,
                    seeds=campaign.seeds,
                    fprs=campaign.fprs,
                    stride=campaign.stride,
                    provisioned_fpr=campaign.provisioned_fpr,
                    backend=ref_backend,
                )
                reference = _run_generation(
                    runner, ref_campaign, out / f"gen_{generation:03d}_ref.jsonl"
                )

            def fitness_of(scenario: str) -> float | None:
                rows = result.for_scenario(scenario)
                if config.fitness == "disagreement":
                    assert reference is not None
                    return score_disagreement(
                        rows, reference.for_scenario(scenario)
                    )
                return score_rows(
                    rows, config.fitness, config.provisioned_fpr
                )

            if base_fitness is None:
                base_fitness = fitness_of(family.base_scenario)
            scores = [fitness_of(name) for name in names]

            for slot, name in enumerate(names):
                if scores[slot] is None or name in archive:
                    continue
                archive[name] = {
                    "name": name,
                    **fuzzed_recipe(name),
                    "fitness": scores[slot],
                    "generation": generation,
                }
            ranked = sorted(
                archive.values(),
                key=lambda entry: (-entry["fitness"], entry["name"]),
            )[: config.archive_size]

            valid = [score for score in scores if score is not None]
            gen_best = max(valid) if valid else None
            if gen_best is not None and (
                best_so_far is None or gen_best > best_so_far
            ):
                best_so_far = gen_best
            best_slot = (
                min(
                    range(len(scores)),
                    key=lambda i: (-score_key(scores[i]), i),
                )
                if valid
                else None
            )
            per_generation.append(
                {
                    "generation": generation,
                    "best_fitness": gen_best,
                    "best_name": (
                        None if best_slot is None else names[best_slot]
                    ),
                    "best_so_far": best_so_far,
                    "mean_fitness": (
                        sum(valid) / len(valid) if valid else None
                    ),
                    "evaluated": len(result.summaries),
                    "failed": len(result.failures()),
                    "unique_genomes": len(unique),
                    "base_fitness": base_fitness,
                }
            )

            archive_payload = {
                "kind": "fuzz_archive",
                "schema": ARCHIVE_SCHEMA,
                "family": config.family,
                "fitness": config.fitness,
                "seed": config.seed,
                "base_scenario": family.base_scenario,
                "base_fitness": base_fitness,
                "entries": ranked,
            }
            search_payload = {
                "kind": "fuzz_search",
                "schema": ARCHIVE_SCHEMA,
                "config": config.to_dict(),
                "base_scenario": family.base_scenario,
                "base_fitness": base_fitness,
                "per_generation": per_generation,
                "best": ranked[0] if ranked else None,
                "exceeds_base": bool(
                    ranked
                    and base_fitness is not None
                    and ranked[0]["fitness"] > base_fitness
                ),
            }
            # Rewritten after every generation, so a killed search keeps
            # a coherent archive for the generations that finished.
            _write_json(out / "archive.json", archive_payload)
            _write_json(out / "search.json", search_payload)

            if progress is not None:
                shown = "-" if gen_best is None else f"{gen_best:.3f}"
                base_shown = (
                    "-" if base_fitness is None else f"{base_fitness:.3f}"
                )
                progress(
                    f"gen {generation + 1}/{config.generations}: "
                    f"best {shown} (base {base_shown}), "
                    f"{len(unique)} genome(s), "
                    f"{len(result.failures())} failure(s)"
                )

            if generation + 1 < config.generations:
                population = next_population(
                    config, population, scores, generation
                )
    finally:
        if previous_env is None:
            os.environ.pop(RECIPES_ENV, None)
        else:
            os.environ[RECIPES_ENV] = previous_env

    ranked = sorted(
        archive.values(),
        key=lambda entry: (-entry["fitness"], entry["name"]),
    )[: config.archive_size]
    return FuzzResult(
        config=config,
        base_fitness=base_fitness,
        archive=ranked,
        per_generation=per_generation,
        archive_path=out / "archive.json",
        search_path=out / "search.json",
        generation_files=generation_files,
    )
