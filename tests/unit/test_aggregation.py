"""Equation 4 — multi-trajectory aggregation."""

import pytest

from repro.core.aggregation import (
    MaxAggregator,
    MeanAggregator,
    PercentileAggregator,
)
from repro.errors import EstimationError


class TestMaxAggregator:
    def test_picks_most_demanding(self):
        assert MaxAggregator().aggregate([0.5, 0.2, 0.9]) == 0.2

    def test_single_value(self):
        assert MaxAggregator().aggregate([0.4]) == 0.4

    def test_unavoidable_dominates(self):
        assert MaxAggregator().aggregate([0.5, 0.0]) == 0.0


class TestMeanAggregator:
    def test_uniform_mean(self):
        assert MeanAggregator().aggregate([0.2, 0.4]) == pytest.approx(0.3)

    def test_weighted_mean(self):
        value = MeanAggregator().aggregate([0.2, 0.8], [0.75, 0.25])
        assert value == pytest.approx(0.35)

    def test_weights_normalized(self):
        a = MeanAggregator().aggregate([0.2, 0.8], [3.0, 1.0])
        b = MeanAggregator().aggregate([0.2, 0.8], [0.75, 0.25])
        assert a == pytest.approx(b)


class TestPercentileAggregator:
    def test_99th_with_many_trajectories(self):
        # 200 uniform latencies: PR99 lands near (but not at) the worst.
        latencies = [i / 200.0 for i in range(1, 201)]
        value = PercentileAggregator(99.0).aggregate(latencies)
        assert 0.005 < value <= 0.02

    def test_100_is_most_pessimistic(self):
        assert PercentileAggregator(100.0).aggregate([0.3, 0.1, 0.9]) == 0.1

    def test_0_is_most_permissive(self):
        assert PercentileAggregator(0.0).aggregate([0.3, 0.1, 0.9]) == 0.9

    def test_90_skips_10pct_extreme(self):
        # A hard-brake hypothesis carrying exactly 10% probability is
        # excluded at n=90 (exclusive convention).
        value = PercentileAggregator(90.0).aggregate(
            [0.05, 0.4, 0.6], [0.1, 0.6, 0.3]
        )
        assert value == 0.4

    def test_99_keeps_10pct_extreme(self):
        value = PercentileAggregator(99.0).aggregate(
            [0.05, 0.4, 0.6], [0.1, 0.6, 0.3]
        )
        assert value == 0.05

    def test_rejects_out_of_range(self):
        with pytest.raises(EstimationError):
            PercentileAggregator(101.0)


class TestValidation:
    def test_empty_rejected(self):
        with pytest.raises(EstimationError):
            MaxAggregator().aggregate([])

    def test_negative_latency_rejected(self):
        with pytest.raises(EstimationError):
            MeanAggregator().aggregate([-0.1])

    def test_mismatched_weights_rejected(self):
        with pytest.raises(EstimationError):
            MeanAggregator().aggregate([0.1, 0.2], [1.0])

    def test_all_zero_weights_rejected(self):
        with pytest.raises(EstimationError):
            MeanAggregator().aggregate([0.1, 0.2], [0.0, 0.0])

    def test_negative_weight_rejected(self):
        with pytest.raises(EstimationError):
            MeanAggregator().aggregate([0.1, 0.2], [1.0, -0.5])


class TestAggregateRows:
    """The vectorized Equation 4 path equals the scalar reductions."""

    def rows(self):
        import numpy as np

        latencies = np.array([[0.4, 0.1, 1.0], [0.2, 0.9, 0.5]])
        probabilities = np.array([[0.5, 0.3, 0.2], [0.6, 0.2, 0.2]])
        active = np.array([[True, True, True], [True, False, True]])
        return latencies, probabilities, active

    @pytest.mark.parametrize(
        "aggregator",
        [MaxAggregator(), MeanAggregator(), PercentileAggregator(90.0)],
        ids=["max", "mean", "percentile"],
    )
    def test_matches_scalar_per_row(self, aggregator):
        latencies, probabilities, active = self.rows()
        out = aggregator.aggregate_rows(latencies, probabilities, active)
        for r in range(latencies.shape[0]):
            ls = [float(l) for l, a in zip(latencies[r], active[r]) if a]
            ps = [float(p) for p, a in zip(probabilities[r], active[r]) if a]
            assert out[r] == aggregator.aggregate(ls, ps)

    def test_rejects_empty_rows(self):
        import numpy as np

        latencies, probabilities, active = self.rows()
        active = np.zeros_like(active)
        with pytest.raises(EstimationError):
            PercentileAggregator().aggregate_rows(
                latencies, probabilities, active
            )

    def test_rejects_negative_values(self):
        import numpy as np

        latencies, probabilities, active = self.rows()
        with pytest.raises(EstimationError):
            PercentileAggregator().aggregate_rows(
                -latencies, probabilities, active
            )
        with pytest.raises(EstimationError):
            PercentileAggregator().aggregate_rows(
                latencies, -probabilities, active
            )

    def test_rejects_misaligned_shapes(self):
        import numpy as np

        latencies, probabilities, active = self.rows()
        with pytest.raises(EstimationError):
            MaxAggregator().aggregate_rows(
                latencies[:, :2], probabilities, active
            )

    def test_rejects_zero_probability_rows(self):
        import numpy as np

        latencies, probabilities, active = self.rows()
        with pytest.raises(EstimationError):
            MeanAggregator().aggregate_rows(
                latencies, np.zeros_like(probabilities), active
            )
