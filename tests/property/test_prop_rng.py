"""Property-based tests: order-independence of the counter-based RNG.

The contract pinned here (see ``repro/core/rng.py`` and
``repro/perception/noise.py``): every stochastic-perception draw is a
pure function of ``(root seed, stream tag, timestamp bits, actor key)``
— no generator state anywhere. Concretely:

* permutation invariance — drawing ticks or actors in any order,
  batched or one at a time, produces the same value for the same key;
* shard invariance — any partition of a time grid draws exactly the
  partition of the whole grid's values, so shards, resume points and
  supercell blocks cannot disagree;
* replay-from-anywhere — a draw sequence restarted at an arbitrary
  tick continues bit-identically, with no warm-up or state to rebuild;
* stream independence — the miss / noise-x / noise-y channels and
  distinct root seeds decorrelate (equal keys never leak equal draws
  across streams);
* distribution smoke — uniforms land in ``[0, 1)`` and pass a crude
  KS-style check; normals match first and second moments.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rng import (
    STREAM_MISS,
    STREAM_NOISE_X,
    STREAM_NOISE_Y,
    counter_normal,
    counter_uniform,
    derive_seed,
    stable_key,
    time_key,
)
from repro.perception.noise import PerceptionNoise

#: Hypothesis-heavy module: deselect locally with ``-m "not slow"``.
pytestmark = pytest.mark.slow

relaxed = settings(max_examples=80, deadline=None)

#: For assertions that hold only with high probability (the distribution
#: smoke). A true U[0,1) stream fails the KS bound below on ~0.1% of
#: seeds, so 80 fresh random seeds per run would fail ~7% of runs, and
#: the example database would then replay the failing seed on every later
#: run. A fixed seed set (``derandomize`` also bypasses the database)
#: keeps the bound and makes the verdict reproducible.
statistical = settings(relaxed, derandomize=True)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
actor_ids = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12
)
grid_sizes = st.integers(min_value=1, max_value=64)


def _time_grid(n, start=0.0, stride=0.05):
    """A closed-form timestamp grid, like the replay engines build."""
    return start + stride * np.arange(n)


class TestPermutationInvariance:
    @relaxed
    @given(seed=seeds, n=grid_sizes, order_seed=seeds)
    def test_tick_order_free(self, seed, n, order_seed):
        times = _time_grid(n)
        words = time_key(times)
        forward = counter_uniform(seed, STREAM_MISS, words)
        perm = np.random.default_rng(order_seed).permutation(n)
        shuffled = counter_uniform(seed, STREAM_MISS, words[perm])
        assert forward[perm].tolist() == shuffled.tolist()

    @relaxed
    @given(seed=seeds, ids=st.lists(actor_ids, min_size=1, max_size=6, unique=True))
    def test_actor_order_free(self, seed, ids):
        noise = PerceptionNoise(miss_rate=0.3, position_noise=0.4, seed=seed)
        times = _time_grid(20)
        forward = {a: noise.sample_actor(a, times) for a in ids}
        backward = {a: noise.sample_actor(a, times) for a in reversed(ids)}
        for actor in ids:
            for lhs, rhs in zip(forward[actor], backward[actor]):
                assert lhs.tolist() == rhs.tolist()

    @relaxed
    @given(seed=seeds, n=grid_sizes)
    def test_batched_equals_one_at_a_time(self, seed, n):
        times = _time_grid(n)
        batch = counter_normal(seed, STREAM_NOISE_X, time_key(times), stable_key("a"))
        singles = [
            float(
                counter_normal(
                    seed, STREAM_NOISE_X, time_key(float(t)), stable_key("a")
                )
            )
            for t in times
        ]
        assert batch.tolist() == singles


class TestShardInvariance:
    @relaxed
    @given(
        seed=seeds,
        n=st.integers(min_value=2, max_value=64),
        cut_seed=seeds,
    )
    def test_arbitrary_partition(self, seed, n, cut_seed):
        noise = PerceptionNoise(miss_rate=0.25, position_noise=0.3, seed=seed)
        times = _time_grid(n)
        whole = noise.sample_actor("lead", times)
        rng = np.random.default_rng(cut_seed)
        cuts = np.sort(rng.choice(np.arange(1, n), size=min(3, n - 1), replace=False))
        pieces = [
            noise.sample_actor("lead", part) for part in np.split(times, cuts)
        ]
        for channel in range(3):
            stitched = np.concatenate([p[channel] for p in pieces])
            assert whole[channel].tolist() == stitched.tolist()

    @relaxed
    @given(seed=seeds, n=st.integers(min_value=4, max_value=64), start=grid_sizes)
    def test_replay_from_arbitrary_tick(self, seed, n, start):
        # Killing a run at tick k and replaying from there continues the
        # exact stream: the suffix draws need no prefix to be replayed.
        k = start % n
        times = _time_grid(n, start=1.25)
        whole = counter_uniform(seed, STREAM_MISS, time_key(times), stable_key("x"))
        resumed = counter_uniform(
            seed, STREAM_MISS, time_key(times[k:]), stable_key("x")
        )
        assert whole[k:].tolist() == resumed.tolist()


class TestStreamIndependence:
    @relaxed
    @given(seed=seeds, n=grid_sizes)
    def test_channels_decorrelate(self, seed, n):
        words = time_key(_time_grid(n))
        key = stable_key("a")
        miss = counter_uniform(seed, STREAM_MISS, words, key)
        nx = counter_uniform(seed, STREAM_NOISE_X, words, key)
        ny = counter_uniform(seed, STREAM_NOISE_Y, words, key)
        # Equal keys never leak equal draws across streams.
        assert not np.any(miss == nx)
        assert not np.any(miss == ny)
        assert not np.any(nx == ny)

    @relaxed
    @given(seed=seeds, other=seeds, n=grid_sizes)
    def test_root_seeds_decorrelate(self, seed, other, n):
        if seed == other:
            other += 1
        words = time_key(_time_grid(n))
        assert not np.any(
            counter_uniform(seed, STREAM_MISS, words)
            == counter_uniform(other, STREAM_MISS, words)
        )

    @relaxed
    @given(seed=seeds)
    def test_derived_seeds_decorrelate(self, seed):
        children = {
            derive_seed(seed, stable_key(s), i, time_key(f))
            for s in ("cut_in", "cut_out")
            for i in range(3)
            for f in (10.0, 30.0)
        }
        assert len(children) == 12
        assert seed not in children


class TestDistributionSmoke:
    @statistical
    @given(seed=seeds)
    def test_uniform_ks(self, seed):
        # Crude one-sample KS against U[0,1): with n = 4096 the 99.9%
        # critical value is ~1.95 / sqrt(n) ≈ 0.0305. A counter stream
        # failing this would bias miss sampling campaign-wide.
        n = 4096
        draws = np.sort(counter_uniform(seed, STREAM_MISS, time_key(_time_grid(n))))
        assert draws[0] >= 0.0 and draws[-1] < 1.0
        ecdf_hi = (1.0 + np.arange(n)) / n
        ecdf_lo = np.arange(n) / n
        ks = max(np.max(ecdf_hi - draws), np.max(draws - ecdf_lo))
        assert ks < 0.0305

    @statistical
    @given(seed=seeds)
    def test_normal_moments(self, seed):
        draws = counter_normal(
            seed, STREAM_NOISE_X, time_key(_time_grid(8192))
        )
        assert np.isfinite(draws).all()
        assert abs(float(draws.mean())) < 0.05
        assert abs(float(draws.std()) - 1.0) < 0.05

    @statistical
    @given(seed=seeds, rate=st.floats(min_value=0.05, max_value=0.95))
    def test_miss_rate_is_calibrated(self, seed, rate):
        noise = PerceptionNoise(miss_rate=rate, seed=seed)
        detected, _, _ = noise.sample_actor("lead", _time_grid(4096))
        observed = 1.0 - float(detected.mean())
        assert abs(observed - rate) < 0.05
