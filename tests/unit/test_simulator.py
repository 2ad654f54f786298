"""The closed-loop step: one ground-truth actor snapshot per step."""

import pytest

from repro import build_scenario
from repro.actors.vehicle import Actor
from repro.sim.simulator import SimulationConfig


@pytest.fixture
def state_reads(monkeypatch):
    """Counts reads of ``Actor.state`` while a test runs."""
    reads = {"n": 0}
    original = Actor.state.fget

    def counted(actor):
        reads["n"] += 1
        return original(actor)

    monkeypatch.setattr(Actor, "state", property(counted))
    return reads


class TestOneSnapshotPerStep:
    """Perception, the choreography context, the trace record, the
    collision check and the settle test share one read per actor per
    step; the final record reuses the last one."""

    @pytest.mark.parametrize(
        "name, fpr, duration, ending",
        [
            ("cut_out", 30.0, 2.0, "duration"),
            ("cut_out_fast", 1.0, 12.0, "collision"),
            ("vehicle_following", 30.0, 40.0, "settled"),
        ],
    )
    def test_one_read_per_actor_per_step(
        self, state_reads, name, fpr, duration, ending
    ):
        scenario = build_scenario(name, seed=0)
        actor_count = len(scenario.build_actors())
        trace = scenario.run(
            fpr=fpr, sim_config=SimulationConfig(duration=duration)
        )
        assert trace.has_collision == (ending == "collision")
        ended_early = trace.steps[-1].time < duration - 1e-9
        assert ended_early == (ending != "duration")
        assert state_reads["n"] == actor_count * len(trace.steps)
