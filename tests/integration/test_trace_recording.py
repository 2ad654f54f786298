"""The simulator's columns equal what its steps record, however a run ends.

The simulator records a trace's columns directly and builds its steps
only on demand (JSON export). Constructing a trace from those steps,
and reloading their JSON export, records the columns again through the
step-object path; both must agree with the simulator bit for bit.
"""

import pytest

from repro import build_scenario


@pytest.mark.slow
@pytest.mark.parametrize(
    "name, fpr, ending",
    [
        ("vehicle_following", 30.0, "settled"),
        ("cut_in_dense8", 5.0, "collision"),
        ("challenging_cut_in_curved_dense8", 30.0, "duration"),
    ],
)
def test_recorded_columns_equal_step_producers(
    name, fpr, ending, producers_agree
):
    scenario = build_scenario(name, seed=0)
    trace = scenario.run(fpr=fpr)
    # Each ending records the last step through its own branch.
    _, end = trace.time_span()
    assert trace.has_collision == (ending == "collision")
    ended_early = end < scenario.spec.duration - 1e-9
    assert ended_early == (ending != "duration")
    assert producers_agree(trace)
