"""Equation 4 — aggregating per-trajectory latencies into one per actor.

During operation the trajectory predictor emits several futures per
actor, each with a probability. Each future yields one tolerable latency;
Zhuyi reduces the set to a single per-actor value. The paper names three
reductions: *maximum* pessimism (the smallest latency — the largest FPR
requirement), probability-weighted *average*, and an *n-th percentile*
"cautious but not too pessimistic" compromise.

Percentile convention: the paper's ``PR_n`` (n = 99) selects a value that
is as demanding as all but the most extreme 1% of futures. Since demand
is the *reciprocal* of latency, the 99th percentile of required rate is
the 1st percentile of latency; :class:`PercentileAggregator` therefore
takes the ``(100 - n)``-th weighted percentile of the latency values.
Unavoidable-collision verdicts enter as latency 0 and thus dominate, as
they must.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.errors import EstimationError


def _validated_weights(
    latencies: Sequence[float], probabilities: Sequence[float] | None
) -> list[float]:
    """Normalized trajectory probabilities (uniform when omitted)."""
    if not latencies:
        raise EstimationError("cannot aggregate an empty latency set")
    if any(value < 0.0 for value in latencies):
        raise EstimationError("latencies must be non-negative")
    if probabilities is None:
        return [1.0 / len(latencies)] * len(latencies)
    if len(probabilities) != len(latencies):
        raise EstimationError(
            f"{len(probabilities)} probabilities for {len(latencies)} latencies"
        )
    if any(weight < 0.0 for weight in probabilities):
        raise EstimationError("probabilities must be non-negative")
    total = sum(probabilities)
    if total <= 0.0:
        raise EstimationError("probabilities must not all be zero")
    return [weight / total for weight in probabilities]


def _validated_row_weights(
    latencies: np.ndarray, probabilities: np.ndarray, active: np.ndarray
) -> np.ndarray:
    """Row-normalized weights over the active entries of each row.

    The batch counterpart of :func:`_validated_weights` for ``(rows,
    hypotheses)`` matrices: the same validation, and per-row totals
    accumulated in entry order exactly like the scalar ``sum`` (inactive
    entries contribute an exact ``0.0``, which leaves every partial sum
    bit-identical), so normalized weights match the scalar path's bit
    for bit.
    """
    if latencies.ndim != 2 or latencies.shape != probabilities.shape:
        raise EstimationError("latency and probability rows must align")
    if not active.any(axis=1).all():
        raise EstimationError("cannot aggregate an empty latency set")
    if np.any(active & (latencies < 0.0)):
        raise EstimationError("latencies must be non-negative")
    if np.any(active & (probabilities < 0.0)):
        raise EstimationError("probabilities must be non-negative")
    masked = np.where(active, probabilities, 0.0)
    totals = np.zeros(latencies.shape[0])
    for column in range(latencies.shape[1]):
        totals = totals + masked[:, column]
    if np.any(totals <= 0.0):
        raise EstimationError("probabilities must not all be zero")
    return np.where(active, probabilities / totals[:, None], 0.0)


@runtime_checkable
class Aggregator(Protocol):
    """Reduces per-trajectory latencies to one per-actor latency.

    :meth:`aggregate` reduces one actor's futures at one tick (the live
    estimate and the scalar replay); :meth:`aggregate_rows` is the same
    reduction vectorized over a trace's rows, which a replay on a
    vectorized backend requires — one lacking it refuses such a replay
    rather than loop :meth:`aggregate` per row.
    """

    def aggregate(
        self,
        latencies: Sequence[float],
        probabilities: Sequence[float] | None = None,
    ) -> float:
        """The aggregated tolerable latency in seconds."""
        ...

    def aggregate_rows(
        self,
        latencies: np.ndarray,
        probabilities: np.ndarray,
        active: np.ndarray,
    ) -> np.ndarray:
        """Equation 4 over ``(rows, hypotheses)`` matrices, per row.

        Row ``r`` reduces the entries where ``active[r]`` holds, with
        the same value :meth:`aggregate` returns for them.
        """
        ...


@dataclass(frozen=True)
class MaxAggregator:
    """Most pessimistic reduction: the worst (smallest) latency.

    "Maximum" in the paper refers to the maximum *requirement*; in
    latency space that is the minimum over trajectories.
    """

    def aggregate(
        self,
        latencies: Sequence[float],
        probabilities: Sequence[float] | None = None,
    ) -> float:
        _validated_weights(latencies, probabilities)
        return min(latencies)

    def aggregate_rows(
        self,
        latencies: np.ndarray,
        probabilities: np.ndarray,
        active: np.ndarray,
    ) -> np.ndarray:
        """Vectorized :meth:`aggregate` over ``(rows, hypotheses)``."""
        _validated_row_weights(latencies, probabilities, active)
        return np.min(np.where(active, latencies, np.inf), axis=1)


@dataclass(frozen=True)
class MeanAggregator:
    """Probability-weighted average latency.

    "Average gives more weight to the most likely future trajectory"
    when the trajectory probabilities are used as weights.
    """

    def aggregate(
        self,
        latencies: Sequence[float],
        probabilities: Sequence[float] | None = None,
    ) -> float:
        weights = _validated_weights(latencies, probabilities)
        return sum(w * l for w, l in zip(weights, latencies))

    def aggregate_rows(
        self,
        latencies: np.ndarray,
        probabilities: np.ndarray,
        active: np.ndarray,
    ) -> np.ndarray:
        """Vectorized :meth:`aggregate` over ``(rows, hypotheses)``.

        The weighted sum accumulates in entry order (inactive entries
        add an exact ``0.0``), reproducing the scalar sum bit for bit.
        """
        weights = _validated_row_weights(latencies, probabilities, active)
        terms = np.where(active, weights * latencies, 0.0)
        out = np.zeros(latencies.shape[0])
        for column in range(latencies.shape[1]):
            out = out + terms[:, column]
        return out


@dataclass(frozen=True)
class PercentileAggregator:
    """The paper's ``PR_n``: n-th percentile of the requirement (Eq 4).

    ``n = 99`` keeps the estimate within the most demanding 1% of futures
    without letting a single extreme hypothesis dictate it.
    """

    n: float = 99.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.n <= 100.0:
            raise EstimationError(f"percentile must be in [0, 100], got {self.n}")

    def aggregate(
        self,
        latencies: Sequence[float],
        probabilities: Sequence[float] | None = None,
    ) -> float:
        weights = _validated_weights(latencies, probabilities)
        # n-th percentile of demand == (100-n)-th weighted percentile of
        # latency: walk the latency-sorted values until the cumulative
        # probability *exceeds* the quantile. The exclusive comparison
        # makes the convention exact at both ends: n=100 returns the
        # most pessimistic atom, n=0 the most permissive, and n=90 skips
        # a hypothesis carrying exactly 10% probability.
        quantile = (100.0 - self.n) / 100.0
        pairs = sorted(zip(latencies, weights), key=lambda pair: pair[0])
        cumulative = 0.0
        for latency, weight in pairs:
            cumulative += weight
            if cumulative > quantile + 1e-12:
                return latency
        return pairs[-1][0]

    def aggregate_rows(
        self,
        latencies: np.ndarray,
        probabilities: np.ndarray,
        active: np.ndarray,
    ) -> np.ndarray:
        """Vectorized :meth:`aggregate` over ``(rows, hypotheses)``.

        Per row: the same stable latency sort, the same sequential
        cumulative-weight walk (``np.cumsum`` is a sequential scan) and
        the same exclusive quantile comparison as the scalar loop.
        Inactive entries sort to the front with zero weight, where they
        can neither trip the comparison (the quantile is non-negative)
        nor displace the all-weights-exhausted fallback (the largest
        active latency sits at the row's end).
        """
        weights = _validated_row_weights(latencies, probabilities, active)
        quantile = (100.0 - self.n) / 100.0
        keyed = np.where(active, latencies, -np.inf)
        order = np.argsort(keyed, axis=1, kind="stable")
        sorted_latencies = np.take_along_axis(keyed, order, axis=1)
        sorted_weights = np.take_along_axis(weights, order, axis=1)
        cumulative = np.cumsum(sorted_weights, axis=1)
        exceeds = cumulative > quantile + 1e-12
        rows = np.arange(latencies.shape[0])
        chosen = np.where(
            exceeds.any(axis=1), exceeds.argmax(axis=1), latencies.shape[1] - 1
        )
        return sorted_latencies[rows, chosen]
