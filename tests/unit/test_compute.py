"""Section 4.2 compute-demand model."""

import pytest

from repro.core.compute import ComputeDemandModel
from repro.errors import ConfigurationError


class TestOpsModel:
    def test_paper_headline_number(self, params):
        # "For a scenario with 2 actors and a single future prediction,
        # the compute demand is capped at 60 kilo-ops."
        model = ComputeDemandModel()
        assert model.ops(2, 1, params) == 60_000

    def test_max_iterations_is_m_times_l(self, params):
        model = ComputeDemandModel()
        assert model.max_iterations(params) == params.m * params.num_latency_steps

    def test_scales_linearly_in_actors(self, params):
        model = ComputeDemandModel()
        assert model.ops(4, 1, params) == 2 * model.ops(2, 1, params)

    def test_scales_linearly_in_trajectories(self, params):
        model = ComputeDemandModel()
        assert model.ops(2, 5, params) == 5 * model.ops(2, 1, params)

    def test_zero_actors_zero_ops(self, params):
        assert ComputeDemandModel().ops(0, 3, params) == 0

    def test_rejects_negative_counts(self, params):
        with pytest.raises(ConfigurationError):
            ComputeDemandModel().ops(-1, 1, params)

    def test_rejects_bad_ops_per_iteration(self):
        with pytest.raises(ConfigurationError):
            ComputeDemandModel(ops_per_iteration=0)


class TestExecutionTime:
    def test_paper_2ms_claim(self, params):
        # "For processors offering 10+ GOPS, the Zhuyi model should
        # execute within 2 ms."
        model = ComputeDemandModel()
        ops = model.ops(2, 1, params)
        assert model.execution_time(ops, throughput_gops=10.0) < 2e-3

    def test_measured_iterations_path(self):
        model = ComputeDemandModel()
        assert model.ops_from_iterations(300) == 30_000

    def test_rejects_bad_throughput(self):
        with pytest.raises(ConfigurationError):
            ComputeDemandModel().execution_time(1000, 0.0)

    def test_rejects_negative_iterations(self):
        with pytest.raises(ConfigurationError):
            ComputeDemandModel().ops_from_iterations(-1)
