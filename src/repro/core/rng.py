"""Counter-based random draws for stochastic perception.

Every draw here is a pure function of its *key* — ``(root seed, stream
tag, ...component keys)`` — with no generator state anywhere. That is
the property the whole-trace batch engines need: a draw's value cannot
depend on how many draws happened before it, so miss sampling and
position noise are identical whether a trace is walked tick by tick,
solved as one array program, split across campaign shards, or replayed
from an arbitrary tick (the counter-based construction of Salmon et
al.'s Philox/Threefry family, realized with the splitmix64 finalizer).

Key components are 64-bit words. :func:`stable_key` maps the id-like
values the perception stack keys on (actor ids, camera names, seeds) to
words via bit patterns and FNV-1a — *never* Python's ``hash()``, which
is salted per process and would break cross-process campaign
reproducibility. Times key by their float64 bit pattern
(:func:`time_key`): two ticks draw identically exactly when their
timestamps are bit-equal, which the closed-form evaluation grids
(``start + i * stride``) guarantee across stride-aligned engines.

Everything computes with numpy's elementwise uint64 ops (wraparound
arithmetic, no Python-int round trips), so a scalar call and a
vectorized call over an array of keys produce bit-identical values —
the parity the order-independence test layer pins. Intermediate
operands stay ndarrays (0-d or bigger) because numpy's *scalar* uint64
arithmetic emits overflow warnings where the array path wraps silently.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

# splitmix64 finalizer constants (Steele, Lea & Flood; also xxhash/
# murmur-style avalanche multipliers) and the 2^64 / golden-ratio
# sequence increment.
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)

# FNV-1a 64-bit parameters for string/bytes keys.
_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x00000100000001B3)

#: Exactly representable reciprocal of 2^53: the top 53 hash bits map
#: to the standard [0, 1) double grid.
_UNIFORM_SCALE = float(2.0**-53)

#: Salts decorrelating the two Box-Muller sub-draws of one normal key.
_NORMAL_SALT_R = np.uint64(0x9F4A7C15F39CC060)
_NORMAL_SALT_T = np.uint64(0x2545F4914F6CDD1D)


def _mix64(h: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer: full-avalanche 64-bit diffusion."""
    h = np.asarray(h, dtype=np.uint64)
    # Wraparound multiplies are the construction; scalar-shaped keys
    # would otherwise warn where the array path wraps silently.
    with np.errstate(over="ignore"):
        h = (h ^ (h >> np.uint64(30))) * _MIX_1
        h = (h ^ (h >> np.uint64(27))) * _MIX_2
        return h ^ (h >> np.uint64(31))


def _absorb(state: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Fold one key word into the hash state (broadcasting).

    The key is diffused before entering the state and the combined word
    is diffused again, so single-bit differences in any absorbed word
    avalanche across the final state; the golden-ratio increment keeps
    absorbing the same word twice from fixing the state.
    """
    return absorb_mixed(state, _mix64(key))


def key_mix(key: object) -> np.ndarray:
    """A key component's diffused word(s): what :func:`counter_hash`
    folds into its state for that component.

    A caller that absorbs the same key many times (an actor id at every
    capture instant of a run) may diffuse it once and hand the result to
    :func:`absorb_mixed`.
    """
    return _mix64(_as_words(key))


def absorb_mixed(state: np.ndarray, mixed: np.ndarray) -> np.ndarray:
    """Fold an already diffused key word (:func:`key_mix`) into ``state``.

    ``absorb_mixed(state, key_mix(key))`` is the step :func:`counter_hash`
    takes per key component, bit for bit (broadcasting).
    """
    state = np.asarray(state, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return _mix64((state + _GOLDEN) ^ mixed)


def stable_key(value: object) -> np.uint64:
    """A process-stable 64-bit key word for an id-like value.

    Integers key by their two's-complement bit pattern, floats by their
    IEEE-754 bit pattern, strings and bytes by FNV-1a over their UTF-8
    encoding. Python's randomized ``hash()`` is deliberately not used:
    campaign shards run in separate processes and must agree on every
    key.

    Args:
        value: an ``int``, ``float``, ``str`` or ``bytes`` identifier.

    Returns:
        The value's key word.

    Raises:
        ConfigurationError: on types with no stable encoding.
    """
    if isinstance(value, bool):
        raise ConfigurationError(
            "booleans are not id-like; key on an int or string instead"
        )
    if isinstance(value, (int, np.integer)):
        return np.uint64(int(value) & 0xFFFFFFFFFFFFFFFF)
    if isinstance(value, (float, np.floating)):
        return np.asarray(value, dtype=np.float64).view(np.uint64)[()]
    if isinstance(value, str):
        value = value.encode("utf-8")
    if isinstance(value, bytes):
        h = np.array([_FNV_OFFSET], dtype=np.uint64)
        with np.errstate(over="ignore"):
            for byte in value:
                h = (h ^ np.uint64(byte)) * _FNV_PRIME
        return h[0]
    raise ConfigurationError(
        f"no stable 64-bit key for {type(value).__name__!r} values"
    )


def time_key(times: object) -> np.uint64 | np.ndarray:
    """Key word(s) for simulation timestamps — their float64 bit pattern.

    Two instants draw identically exactly when their timestamps are
    bit-equal; the closed-form tick grids (``start + i * stride``)
    guarantee that across engines, strides into the same instants, and
    replays starting anywhere. Accepts a scalar or an array (keys align
    elementwise).
    """
    return np.asarray(times, dtype=np.float64).view(np.uint64)[()]


def counter_hash(seed: int, stream: object, *keys: object) -> np.ndarray:
    """The raw 64-bit hash of one draw key (broadcasting over arrays).

    Args:
        seed: the root seed (any Python int; reduced mod 2^64).
        stream: the stream tag separating independent channels (one of
            the ``STREAM_*`` words, or any :func:`stable_key`-able id).
        *keys: the remaining key components — pre-built ``uint64``
            word(s) (scalar or array, broadcast together) or any value
            :func:`stable_key` accepts.

    Returns:
        uint64 word(s) in the keys' broadcast shape.
    """
    state = _mix64(stable_key(seed))
    state = _absorb(state, _as_words(stream))
    for key in keys:
        state = _absorb(state, _as_words(key))
    return state


def _as_words(key: object) -> np.ndarray:
    """A key component as uint64 word(s), scalar or array."""
    if isinstance(key, np.ndarray) or isinstance(key, np.uint64):
        return np.asarray(key, dtype=np.uint64)
    return np.asarray(stable_key(key), dtype=np.uint64)


def hash_uniform(words: np.ndarray) -> np.ndarray:
    """Top 53 hash bits onto the standard [0, 1) double grid."""
    return (words >> np.uint64(11)).astype(np.float64) * _UNIFORM_SCALE


def hash_normal(base: np.ndarray) -> np.ndarray:
    """The standard-normal draw of each :func:`counter_hash` word.

    Box-Muller over two salted sub-draws of the same key:
    ``sqrt(-2 ln(1 - u_r)) * cos(2 pi u_t)``. ``1 - u_r`` lies in
    (0, 1], so the log never sees zero.
    """
    u_r = hash_uniform(_mix64(base ^ _NORMAL_SALT_R))
    u_t = hash_uniform(_mix64(base ^ _NORMAL_SALT_T))
    radius = np.sqrt(-2.0 * np.log1p(-u_r))
    return radius * np.cos((2.0 * np.pi) * u_t)


def counter_uniform(seed: int, stream: object, *keys: object) -> np.ndarray:
    """A uniform [0, 1) draw per key (broadcasting over array keys).

    Pure function of the full key: any iteration order, partitioning or
    batching of the same keys yields bit-identical values.
    """
    return hash_uniform(counter_hash(seed, stream, *keys))


def counter_normal(seed: int, stream: object, *keys: object) -> np.ndarray:
    """A standard-normal draw per key (broadcasting over array keys).

    :func:`hash_normal` of the key's hash: both Box-Muller sub-draws
    inherit the counter construction, so normals are exactly as
    order-free as uniforms.
    """
    return hash_normal(counter_hash(seed, stream, *keys))


def derive_seed(seed: int, *keys: object) -> int:
    """A decorrelated child seed for a sub-experiment.

    Campaign cells derive their trace-level noise seed from the
    campaign's root seed and the cell coordinates, so draws never
    correlate across cells while remaining independent of shard
    partitioning and execution order.
    """
    return int(counter_hash(seed, STREAM_DERIVE, *keys)[()])


#: The central stream-tag registry: every named draw channel and seed-
#: derivation key used anywhere in the codebase, tag → key word. The
#: RNG004 lint rule (``repro.lint``) statically checks that every
#: stream/derivation literal in ``src/`` resolves here, and
#: :func:`register_stream` hard-errors if two distinct tags ever hash
#: to the same key word — a collision would silently correlate two
#: channels that every recorded result assumes are independent.
STREAM_REGISTRY: dict[str, np.uint64] = {}


def register_stream(name: str) -> np.uint64:
    """Register a named draw channel; returns its key word.

    The single place stream tags come from. Registration is idempotent
    for a given name; registering a *different* name whose FNV-1a word
    collides with an existing tag raises — the two channels would share
    every draw, which no test could tell apart from correct behavior.

    Args:
        name: the channel's descriptive dotted name (e.g.
            ``"perception.miss"``).

    Returns:
        The tag's key word, as :func:`stable_key` computes it.

    Raises:
        ConfigurationError: on a non-string/empty name or a key-word
            collision with a previously registered tag.
    """
    if not isinstance(name, str) or not name:
        raise ConfigurationError(
            f"stream tags are non-empty strings, got {name!r}"
        )
    word = stable_key(name)
    if name in STREAM_REGISTRY:
        return STREAM_REGISTRY[name]
    for other, other_word in STREAM_REGISTRY.items():
        if other_word == word:
            raise ConfigurationError(
                f"stream tag {name!r} collides with {other!r}: both hash "
                f"to key word {int(word):#018x}"
            )
    STREAM_REGISTRY[name] = word
    return word


def registered_streams() -> dict[str, int]:
    """A snapshot of the registry, tag → key word as a Python int."""
    return {name: int(word) for name, word in STREAM_REGISTRY.items()}


#: Stream tags — FNV-1a words of descriptive channel names. Distinct
#: streams over the same (seed, keys) never share draws.
STREAM_MISS = register_stream("perception.miss")
STREAM_NOISE_X = register_stream("perception.noise.x")
STREAM_NOISE_Y = register_stream("perception.noise.y")
STREAM_DERIVE = register_stream("seed.derive")
# The evolutionary scenario search draws its whole trajectory from
# these three channels keyed by (generation, slot, gene) coordinates,
# so a fuzz run is a pure function of its root seed — independent of
# worker counts, resume points and evaluation order.
STREAM_FUZZ_INIT = register_stream("fuzz.init")
STREAM_FUZZ_SELECT = register_stream("fuzz.select")
STREAM_FUZZ_MUTATE = register_stream("fuzz.mutate")
# Seed-derivation keys (the string literals handed to derive_seed):
# "perception" roots a scenario's counter-keyed perception draws off
# its choreography seed (see BuiltScenario.perception_seed).
KEY_PERCEPTION = register_stream("perception")
