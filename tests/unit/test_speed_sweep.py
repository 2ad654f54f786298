"""The speed-sweep catalog expander."""

import pytest

from repro.errors import ConfigurationError
from repro.scenarios import (
    DEFAULT_SWEEP_SPEEDS,
    SCENARIO_NAMES,
    SCENARIOS,
    build_scenario,
    speed_sweep,
)


@pytest.fixture(scope="module")
def sweep_names() -> list[str]:
    return speed_sweep()


class TestExpansion:
    def test_names_unique(self, sweep_names):
        assert len(sweep_names) == len(set(sweep_names))
        assert len(sweep_names) == 2 * len(DEFAULT_SWEEP_SPEEDS)

    def test_names_registered(self, sweep_names):
        for name in sweep_names:
            assert name in SCENARIOS

    def test_idempotent(self, sweep_names):
        before = len(SCENARIOS)
        assert speed_sweep() == sweep_names
        assert len(SCENARIOS) == before

    def test_does_not_shadow_table1_names(self, sweep_names):
        assert not set(sweep_names) & set(SCENARIO_NAMES)

    def test_specs_buildable(self, sweep_names):
        for name in sweep_names:
            built = build_scenario(name, seed=3)
            state = built.ego_initial_state()
            assert state.speed == pytest.approx(built.ego_speed)
            actors = built.build_actors()
            assert actors, name
            ids = [actor.actor_id for actor in actors]
            assert len(ids) == len(set(ids))

    def test_speed_encoded_in_spec(self, sweep_names):
        assert SCENARIOS["cut_out_50mph"].ego_speed_mph == 50.0
        assert SCENARIOS["cut_in_20mph"].ego_speed_mph == 20.0

    def test_same_seed_same_choreography(self, sweep_names):
        first = build_scenario("cut_out_60mph", seed=5).build_actors()
        second = build_scenario("cut_out_60mph", seed=5).build_actors()
        assert [a.station for a in first] == [a.station for a in second]


class TestEnsureScenario:
    """Sweep names carry their own recipe and re-derive on demand.

    This is what keeps spawn-start-method campaign workers and fresh
    processes reloading a campaign JSONL working: their registries have
    never seen the parent's ``speed_sweep()`` call.
    """

    def test_derives_unregistered_custom_speed(self):
        from repro.scenarios.catalog import ensure_scenario

        # 23.5 mph is in no default sweep, so no other test registered it.
        assert "cut_out_23.5mph" not in SCENARIOS
        assert ensure_scenario("cut_out_23.5mph")
        assert SCENARIOS["cut_out_23.5mph"].ego_speed_mph == 23.5

    def test_build_scenario_accepts_underived_variant(self):
        built = build_scenario("cut_in_33mph", seed=0)
        assert built.spec.ego_speed_mph == 33.0

    def test_rejects_non_sweep_names(self):
        from repro.scenarios.catalog import ensure_scenario

        assert not ensure_scenario("warp")
        assert not ensure_scenario("cut_out_mph")
        assert not ensure_scenario("teleport_30mph")


class TestValidation:
    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigurationError):
            speed_sweep(families=("teleport",))

    def test_non_positive_speed_rejected(self):
        with pytest.raises(ConfigurationError):
            speed_sweep(speeds_mph=(0.0,))


class TestVehicleFollowingFamily:
    def test_family_registers(self):
        names = speed_sweep(
            speeds_mph=(30.0, 60.0), families=("vehicle_following",)
        )
        assert names == [
            "vehicle_following_30mph",
            "vehicle_following_60mph",
        ]
        for name in names:
            assert name in SCENARIOS
            assert SCENARIOS[name].activity == {
                "front": True,
                "right": False,
                "left": False,
            }

    def test_variant_buildable_with_scaled_gap(self):
        speed_sweep(speeds_mph=(30.0,), families=("vehicle_following",))
        built = build_scenario("vehicle_following_30mph", seed=1)
        actors = built.build_actors()
        assert [a.actor_id for a in actors] == ["lead"]
        # The 50 m baseline gap shrinks with the 30/70 speed ratio.
        gap = actors[0].station - SCENARIOS["vehicle_following_30mph"].ego_station
        assert 15.0 < gap < 30.0

    def test_ensure_scenario_derives_it(self):
        from repro.scenarios.catalog import ensure_scenario

        assert "vehicle_following_23mph" not in SCENARIOS
        assert ensure_scenario("vehicle_following_23mph")
        assert SCENARIOS["vehicle_following_23mph"].ego_speed_mph == 23.0


@pytest.mark.slow
class TestBaselineSpeedRecordsCatalogRun:
    """Pins each sweep builder to the catalog choreography it rescales.

    At its family's catalog speed a sweep variant records the catalog
    scenario's run bit for bit: the same columns under the variant's
    own name and metadata, cut to the sweep's 35 s duration (the
    cut-in catalog entry runs 40 s).
    """

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize(
        "variant, base",
        [
            ("cut_out_20mph", "cut_out"),
            ("cut_in_70mph", "cut_in"),
            ("vehicle_following_70mph", "vehicle_following"),
        ],
    )
    def test_same_columns(self, columns_equal, variant, base, seed):
        from repro.sim.trace import ScenarioTrace

        swept = build_scenario(variant, seed=seed).run(fpr=30.0)
        full = build_scenario(base, seed=seed).run(fpr=30.0)
        assert not swept.has_collision and not full.has_collision
        assert len(swept.steps) <= len(full.steps)
        cut = ScenarioTrace(
            scenario=swept.scenario,
            dt=full.dt,
            steps=full.steps[: len(swept.steps)],
            collisions=full.collisions,
            nominal_fpr=full.nominal_fpr,
            seed=full.seed,
            ego_spec=full.ego_spec,
            actor_specs=full.actor_specs,
            metadata=swept.metadata,
        )
        assert columns_equal(swept, cut)


class TestDensitySweep:
    def test_default_registration(self):
        from repro.scenarios import DEFAULT_DENSITY_COUNTS, density_sweep

        names = density_sweep()
        # Four sweepable families: the three straight-road Table 1
        # bases plus the curved cut-in.
        assert len(names) == 4 * len(DEFAULT_DENSITY_COUNTS)
        assert "cut_in_dense4" in names
        assert "challenging_cut_in_curved_dense8" in names
        for name in names:
            assert name in SCENARIOS

    def test_idempotent(self):
        from repro.scenarios import density_sweep

        first = density_sweep()
        before = len(SCENARIOS)
        assert density_sweep() == first
        assert len(SCENARIOS) == before

    def test_background_actor_count_and_determinism(self):
        from repro.scenarios import density_sweep

        density_sweep(counts=(6,), families=("cut_in",))
        built = build_scenario("cut_in_dense6", seed=2)
        actors = built.build_actors()
        backgrounds = [
            a for a in actors if a.actor_id.startswith("background_")
        ]
        assert len(backgrounds) == 6
        ids = [a.actor_id for a in actors]
        assert len(ids) == len(set(ids))
        again = build_scenario("cut_in_dense6", seed=2).build_actors()
        assert [a.station for a in actors] == [a.station for a in again]

    def test_queue_is_stopped_and_in_ego_lane(self):
        from repro.scenarios import density_sweep

        density_sweep(counts=(4,), families=("vehicle_following",))
        built = build_scenario("vehicle_following_dense4", seed=0)
        spec = SCENARIOS["vehicle_following_dense4"]
        queue = [
            a
            for a in built.build_actors()
            if a.actor_id.startswith("background_") and a.speed == 0.0
        ]
        assert len(queue) == 2  # even indices of 4
        for actor in queue:
            assert actor.lane == spec.ego_lane
            assert actor.station > spec.ego_station + 400.0

    def test_ensure_scenario_derives_density_names(self):
        from repro.scenarios.catalog import ensure_scenario

        assert "cut_out_dense3" not in SCENARIOS
        assert ensure_scenario("cut_out_dense3")
        assert not ensure_scenario("cut_out_dense")
        assert not ensure_scenario("warp_dense4")

    def test_validation(self):
        from repro.scenarios import density_sweep

        with pytest.raises(ConfigurationError):
            density_sweep(families=("teleport",))
        with pytest.raises(ConfigurationError):
            density_sweep(counts=(0,))
