"""The evolutionary operators and fitness functions, sans simulation.

Everything stochastic in the search is a counter-RNG draw keyed by
(generation, slot/child, gene) — these tests pin the operators as pure
functions of the config seed, with bounds respected and determinism
independent of call order. Fitness functions are pinned on synthetic
run summaries.
"""

import pytest

from repro.batch.results import RunSummary
from repro.errors import ConfigurationError
from repro.fuzz import (
    FuzzConfig,
    initial_population,
    mutate,
    next_population,
    score_disagreement,
    score_key,
    score_rows,
    tournament_pick,
)
from repro.scenarios.fuzzed import FUZZ_FAMILIES

CONFIG = FuzzConfig(
    family="cut_out", population=6, generations=3, elite=2, seed=11
)
SPACE = FUZZ_FAMILIES["cut_out"].space


def row(index=0, collided=False, max_fpr=10.0, fpr=30.0, error=None):
    return RunSummary(
        index=index,
        scenario="fuzzed_cut_out_0000000000",
        seed=0,
        fpr=fpr,
        variant="default",
        collided=collided,
        max_fpr=None if error or collided else max_fpr,
        error=error,
    )


class TestFuzzConfig:
    def test_rejects_unknown_family(self):
        with pytest.raises(ConfigurationError):
            FuzzConfig(family="nope")

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(population=1),
            dict(generations=0),
            dict(elite=6),
            dict(elite=-1),
            dict(tournament=0),
            dict(mutation_scale=0.0),
            dict(mutation_scale=1.5),
            dict(fitness="bogus"),
            dict(backend="bogus"),
            dict(sim_seeds=()),
            dict(fprs=()),
            dict(stride=0.0),
            dict(archive_size=0),
        ],
    )
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ConfigurationError):
            FuzzConfig(family="cut_out", **{"population": 6, **kwargs})

    def test_unrunnable_fpr_rejected(self, unrunnable_fpr):
        # Every genome would run the grid, so it fails before any run.
        with pytest.raises(ConfigurationError, match="FPR must be within"):
            FuzzConfig(
                family="cut_out", population=6, fprs=(30.0, unrunnable_fpr)
            )

    def test_to_dict_round_trips_values(self):
        data = CONFIG.to_dict()
        assert data["family"] == "cut_out"
        assert data["population"] == 6
        assert FuzzConfig(**{
            **data,
            "sim_seeds": tuple(data["sim_seeds"]),
            "fprs": tuple(data["fprs"]),
        }) == CONFIG


class TestInitialPopulation:
    def test_slot_zero_is_the_family_default(self):
        population = initial_population(CONFIG)
        assert population[0] == SPACE.defaults()
        assert len(population) == CONFIG.population

    def test_random_slots_respect_bounds_and_types(self):
        for genome in initial_population(CONFIG)[1:]:
            for gene in SPACE.genes:
                value = genome[gene.name]
                assert gene.low <= value <= gene.high
                if gene.integer:
                    assert isinstance(value, int)

    def test_deterministic_in_seed(self):
        assert initial_population(CONFIG) == initial_population(CONFIG)
        other = FuzzConfig(
            family="cut_out", population=6, generations=3, elite=2, seed=12
        )
        assert initial_population(other) != initial_population(CONFIG)


class TestMutate:
    GENOME = SPACE.defaults()

    def test_stays_in_bounds(self):
        wide = FuzzConfig(
            family="cut_out", population=6, mutation_scale=1.0, seed=3
        )
        for child in range(20):
            mutated = mutate(wide, self.GENOME, 0, child)
            for gene in SPACE.genes:
                assert gene.low <= mutated[gene.name] <= gene.high

    def test_deterministic_per_key(self):
        assert mutate(CONFIG, self.GENOME, 1, 2) == mutate(
            CONFIG, self.GENOME, 1, 2
        )
        assert mutate(CONFIG, self.GENOME, 1, 2) != mutate(
            CONFIG, self.GENOME, 1, 3
        )

    def test_integer_genes_stay_integers(self):
        mutated = mutate(CONFIG, self.GENOME, 0, 0)
        assert isinstance(mutated["actor_count"], int)


class TestSelection:
    SCORES = [5.0, None, 12.0, 1.0, 12.0, 3.0]

    def test_tournament_is_deterministic(self):
        picks = [
            tournament_pick(CONFIG, self.SCORES, 2, child)
            for child in range(8)
        ]
        assert picks == [
            tournament_pick(CONFIG, self.SCORES, 2, child)
            for child in range(8)
        ]
        assert all(0 <= pick < len(self.SCORES) for pick in picks)

    def test_single_candidate_tournament(self):
        config = FuzzConfig(family="cut_out", population=6, tournament=1)
        pick = tournament_pick(config, self.SCORES, 0, 0)
        assert 0 <= pick < len(self.SCORES)

    def test_next_population_keeps_elites_first(self):
        population = initial_population(CONFIG)
        successors = next_population(CONFIG, population, self.SCORES, 0)
        assert len(successors) == CONFIG.population
        # Slots 2 and 4 tie at 12.0; the lower slot ranks first.
        assert successors[0] == population[2]
        assert successors[1] == population[4]

    def test_none_scores_never_make_elite(self):
        population = initial_population(CONFIG)
        scores = [None, None, None, None, 2.0, 1.0]
        successors = next_population(CONFIG, population, scores, 1)
        assert successors[0] == population[4]
        assert successors[1] == population[5]


class TestScoreRows:
    def test_latency_is_peak_demand(self):
        rows = [row(max_fpr=8.0), row(index=1, max_fpr=22.5)]
        assert score_rows(rows, "latency", 30.0) == 22.5

    def test_collision_scores_twice_the_provision(self):
        rows = [row(max_fpr=8.0), row(index=1, collided=True)]
        assert score_rows(rows, "latency", 30.0) == 60.0

    def test_mrf_margin_subtracts_the_run_fpr(self):
        rows = [row(max_fpr=34.0, fpr=30.0), row(index=1, max_fpr=9.0, fpr=5.0)]
        assert score_rows(rows, "mrf_margin", 30.0) == 4.0

    def test_failed_rows_are_ignored(self):
        rows = [row(error="SimulationError: boom"), row(index=1, max_fpr=3.0)]
        assert score_rows(rows, "latency", 30.0) == 3.0

    def test_all_failed_scores_none(self):
        assert score_rows([row(error="x")], "latency", 30.0) is None
        assert score_rows([], "latency", 30.0) is None

    def test_unknown_fitness_raises(self):
        with pytest.raises(ConfigurationError):
            score_rows([], "disagreement", 30.0)


class TestScoreDisagreement:
    def test_peak_absolute_difference_over_paired_cells(self):
        rows = [row(max_fpr=10.0, fpr=10.0), row(index=1, max_fpr=20.0)]
        ref = [row(max_fpr=10.5, fpr=10.0), row(index=1, max_fpr=19.0)]
        assert score_disagreement(rows, ref) == 1.0

    def test_collision_mismatch_is_infinite(self):
        assert score_disagreement(
            [row(collided=True)], [row(max_fpr=5.0)]
        ) == float("inf")

    def test_agreeing_collisions_score_zero(self):
        assert (
            score_disagreement([row(collided=True)], [row(collided=True)])
            == 0.0
        )

    def test_no_usable_pairs_is_none(self):
        assert score_disagreement([row(error="x")], [row()]) is None
        assert score_disagreement([row()], []) is None


def test_score_key_orders_none_last():
    assert score_key(None) < score_key(-1e9)
    assert sorted([None, 3.0, 1.0], key=score_key, reverse=True) == [
        3.0,
        1.0,
        None,
    ]
