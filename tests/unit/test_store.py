"""Unit tests: the simulate-once trace store.

Synthetic traces keep these fast; the one closed-loop run simulates
two seconds. Covered: bundle round trips through the memmap read path,
one trace class whose trajectories adopt its columns (fresh or loaded),
key versioning (stale sim_version / fingerprint read as misses),
corruption and truncation verification, the concurrent-recorder rename
race, index maintenance, deterministic handle release on ``close()``,
and the flat-FD guarantee across a 50-cell warm campaign pass.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro import build_scenario
from repro.batch.campaign import RunSpec
from repro.batch.runner import execute_cell
from repro.dynamics.state import VehicleState
from repro.errors import TraceError
from repro.geometry.vec import Vec2
from repro.perception.sensor import ANALYZED_CAMERAS
from repro.sim.simulator import SimulationConfig
from repro.sim.trace import ScenarioTrace, TraceStep
from repro.store import SIM_VERSION, TraceStore, code_fingerprint


def synthetic_trace(
    scenario: str = "cut_out", seed: int = 0, n_steps: int = 41
) -> ScenarioTrace:
    """A small evaluable trace: ego cruising, one lead actor ahead."""
    dt = 0.05
    steps = []
    for i in range(n_steps):
        t = i * dt
        steps.append(
            TraceStep(
                time=t,
                ego=VehicleState(
                    position=Vec2(10.0 * t, 0.0), heading=0.0, speed=10.0
                ),
                actors={
                    "lead": VehicleState(
                        position=Vec2(40.0 + 8.0 * t, 0.0),
                        heading=0.0,
                        speed=8.0,
                    )
                },
                planner_mode="cruise" if i % 3 else "brake",
                camera_fprs={"front": 12.0 + i},
            )
        )
    return ScenarioTrace(
        scenario=scenario,
        dt=dt,
        steps=steps,
        nominal_fpr=30.0,
        seed=seed,
        metadata={"synthetic": True, "steps": n_steps},
    )


@pytest.fixture()
def store(tmp_path) -> TraceStore:
    return TraceStore(tmp_path / "store")


class TestStoreKey:
    def test_digest_is_stable_and_key_sensitive(self, store):
        key = store.key("cut_out", 0, 30.0)
        assert key.digest() == store.key("cut_out", 0, 30.0).digest()
        for other in (
            store.key("cut_in", 0, 30.0),
            store.key("cut_out", 1, 30.0),
            store.key("cut_out", 0, 15.0),
        ):
            assert other.digest() != key.digest()

    def test_digest_covers_versions(self, tmp_path):
        a = TraceStore(tmp_path, sim_version=1, fingerprint="aaaa")
        b = TraceStore(tmp_path, sim_version=2, fingerprint="aaaa")
        c = TraceStore(tmp_path, sim_version=1, fingerprint="bbbb")
        key = ("cut_out", 0, 30.0)
        digests = {s.key(*key).digest() for s in (a, b, c)}
        assert len(digests) == 3

    def test_round_trips_through_dict(self, store):
        key = store.key("cut_out", 3, 15.0)
        assert type(key).from_dict(key.to_dict()) == key

    def test_fingerprint_defaults_to_code_fingerprint(self, store):
        assert store.fingerprint == code_fingerprint()
        assert len(code_fingerprint()) == 16


class TestPutGet:
    def test_miss_before_put(self, store):
        key = store.key("cut_out", 0, 30.0)
        assert key not in store
        assert store.get(key) is None

    def test_round_trip_is_bit_exact(self, store, columns_equal):
        trace = synthetic_trace()
        key = store.key("cut_out", 0, 30.0)
        store.put(key, trace)
        assert key in store
        loaded = store.get(key)
        assert type(loaded) is ScenarioTrace
        assert columns_equal(trace, loaded)
        loaded.close()

    def test_loaded_columns_are_memmapped(self, store):
        key = store.key("cut_out", 0, 30.0)
        store.put(key, synthetic_trace())
        loaded = store.get(key)
        assert isinstance(loaded.columns["times"], np.memmap)
        # Trajectories adopt the columns without copying.
        span = loaded.time_span()
        assert span[0] == 0.0
        loaded.close()

    def test_stale_sim_version_misses(self, tmp_path):
        old = TraceStore(tmp_path, sim_version=SIM_VERSION)
        old.put(old.key("cut_out", 0, 30.0), synthetic_trace())
        new = TraceStore(tmp_path, sim_version=SIM_VERSION + 1)
        assert new.get(new.key("cut_out", 0, 30.0)) is None
        assert new.keys() == []
        assert len(old.keys()) == 1

    def test_stale_fingerprint_misses(self, tmp_path):
        old = TraceStore(tmp_path, fingerprint="old-tree")
        old.put(old.key("cut_out", 0, 30.0), synthetic_trace())
        new = TraceStore(tmp_path, fingerprint="new-tree")
        assert new.get(new.key("cut_out", 0, 30.0)) is None
        assert new.keys() == []


def assert_trajectories_adopt_columns(trace: ScenarioTrace) -> None:
    """Every array behind the trace's trajectories is a column view."""
    columns = trace.columns
    ego = trace.ego_trajectory()
    assert np.shares_memory(ego._t, columns["times"])
    for knots in (ego._x, ego._y, ego._heading_raw, ego._speed, ego._accel):
        assert np.shares_memory(knots, columns["ego"])
    for actor_id in trace.actor_ids():
        actor = trace.actor_trajectory(actor_id)
        assert np.shares_memory(actor._t, columns["times"])
        for knots in (
            actor._x, actor._y, actor._heading_raw, actor._speed, actor._accel
        ):
            assert np.shares_memory(knots, columns["actor_columns"])


class TestOneRepresentation:
    def test_fresh_and_stored_trajectories_adopt_their_columns(
        self, store, columns_equal
    ):
        trace = build_scenario("cut_out", seed=0).run(
            fpr=30.0, sim_config=SimulationConfig(duration=2.0)
        )
        assert trace.actor_ids()
        assert_trajectories_adopt_columns(trace)
        key = store.key("cut_out", 0, 30.0)
        store.put(key, trace)
        loaded = store.get(key)
        assert type(loaded) is type(trace)
        assert columns_equal(trace, loaded)
        assert_trajectories_adopt_columns(loaded)
        loaded.close()


class TestVerification:
    def _corrupt(self, store, key, column="ego.npy"):
        path = store.bundle_dir(key) / column
        raw = bytearray(path.read_bytes())
        raw[-8] ^= 0xFF
        path.write_bytes(bytes(raw))

    def test_corrupt_column_reads_as_miss(self, store):
        key = store.key("cut_out", 0, 30.0)
        store.put(key, synthetic_trace())
        self._corrupt(store, key)
        assert store.get(key) is None

    def test_truncated_column_reads_as_miss(self, store):
        key = store.key("cut_out", 0, 30.0)
        store.put(key, synthetic_trace())
        path = store.bundle_dir(key) / "times.npy"
        path.write_bytes(path.read_bytes()[:-16])
        assert store.get(key) is None

    def test_damaged_meta_reads_as_miss(self, store):
        key = store.key("cut_out", 0, 30.0)
        store.put(key, synthetic_trace())
        (store.bundle_dir(key) / "meta.json").write_text("{not json")
        assert store.get(key) is None

    def test_reput_replaces_damaged_bundle(self, store, columns_equal):
        trace = synthetic_trace()
        key = store.key("cut_out", 0, 30.0)
        store.put(key, trace)
        self._corrupt(store, key)
        assert store.get(key) is None
        store.put(key, trace)  # re-simulation records over the damage
        loaded = store.get(key)
        assert loaded is not None
        assert columns_equal(trace, loaded)
        loaded.close()


class TestRenameRace:
    def test_loser_reuses_winner(self, store):
        """Two recorders stage the same key; the loser keeps the winner."""
        key = store.key("cut_out", 0, 30.0)
        winner_trace = synthetic_trace(n_steps=41)
        loser_trace = synthetic_trace(n_steps=41)

        final = store.bundle_dir(key)
        final.parent.mkdir(parents=True, exist_ok=True)
        staging = final.parent / f"{final.name}.tmp-test-loser"
        store._write_bundle(staging, key, loser_trace)
        # The other recorder commits first.
        store.put(key, winner_trace)
        marker = json.loads((final / "meta.json").read_text())
        store._commit(staging, final)
        # The winner's bundle survived the losing commit untouched.
        assert json.loads((final / "meta.json").read_text()) == marker
        assert store.get(key) is not None

    def test_commit_replaces_unverifiable_existing_bundle(self, store):
        key = store.key("cut_out", 0, 30.0)
        trace = synthetic_trace()
        store.put(key, trace)
        bundle = store.bundle_dir(key)
        (bundle / "meta.json").write_text("{}")
        staging = bundle.parent / f"{bundle.name}.tmp-test-replace"
        store._write_bundle(staging, key, trace)
        store._commit(staging, bundle)
        assert store.get(key) is not None


class TestIndex:
    def test_keys_enumerates_recorded_cells(self, store):
        for seed in (2, 0, 1):
            store.put(
                store.key("cut_out", seed, 30.0), synthetic_trace(seed=seed)
            )
        assert [key.cell for key in store.keys()] == [
            ("cut_out", 0, 30.0),
            ("cut_out", 1, 30.0),
            ("cut_out", 2, 30.0),
        ]

    def test_duplicate_index_lines_dedupe(self, store):
        key = store.key("cut_out", 0, 30.0)
        store.put(key, synthetic_trace())
        store._append_index(key)  # a second recorder logged it too
        assert len(store.keys()) == 1

    def test_rebuild_index_recovers_orphans(self, store):
        for seed in range(3):
            store.put(
                store.key("cut_out", seed, 30.0), synthetic_trace(seed=seed)
            )
        store.index_path.unlink()
        assert store.keys() == []
        assert store.rebuild_index() == 3
        assert len(store.keys()) == 3

    def test_torn_index_line_is_skipped(self, store):
        store.put(store.key("cut_out", 0, 30.0), synthetic_trace())
        with store.index_path.open("a") as handle:
            handle.write('{"key": {"scenario"')  # torn tail, no newline
        assert len(store.keys()) == 1


class TestColumnarClose:
    def test_close_releases_columns(self, store):
        key = store.key("cut_out", 0, 30.0)
        store.put(key, synthetic_trace())
        trace = store.get(key)
        trace.ego_trajectory()
        trace.close()
        with pytest.raises(TraceError, match="closed"):
            trace.ego_trajectory()
        with pytest.raises(TraceError, match="closed"):
            _ = trace.columns
        trace.close()  # idempotent

    def test_scalars_survive_close(self, store):
        key = store.key("cut_out", 0, 30.0)
        store.put(key, synthetic_trace())
        trace = store.get(key)
        duration = trace.duration
        trace.close()
        assert trace.scenario == "cut_out"
        assert trace.nominal_fpr == 30.0
        assert duration > 0.0


class TestFdBudget:
    def test_fifty_warm_cells_keep_fd_count_flat(self, store):
        """Satellite regression: a warm pass must not leak handles.

        Every cell opens a bundle's memmaps; without the deterministic
        ``close()`` in the runner's ``finally`` the FD count grows per
        cell until the campaign dies on EMFILE.
        """
        for seed in range(50):
            store.put(
                store.key("cut_out", seed, 30.0), synthetic_trace(seed=seed)
            )
        specs = [
            RunSpec(
                index=seed,
                scenario="cut_out",
                seed=seed,
                fpr=30.0,
                variant="default",
                params=None,
                stride=0.5,
                provisioned_fpr=30.0,
                cameras=ANALYZED_CAMERAS,
            )
            for seed in range(50)
        ]
        fd_dir = Path("/proc/self/fd")
        if not fd_dir.is_dir():
            pytest.skip("no /proc fd accounting on this platform")
        # Warm up imports/caches so lazy module loads don't count.
        assert execute_cell([specs[0]], store=store)[0].ok
        before = len(os.listdir(fd_dir))
        for spec in specs:
            summaries = execute_cell([spec], store=store)
            assert summaries[0].ok, summaries[0].error
        after = len(os.listdir(fd_dir))
        assert after - before <= 2, f"fd leak: {before} -> {after}"
