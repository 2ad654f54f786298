"""Zhuyi model constants and the latency grid."""

import pytest

from repro.core.parameters import ZhuyiParams
from repro.errors import ConfigurationError


class TestDefaults:
    def test_paper_values(self, params):
        assert params.c1 == 0.9
        assert params.c2 == 0.9
        assert params.c3 == 4.9
        assert params.c4 == 1.1
        assert params.k == 5
        assert params.m == 10

    def test_grid_size_is_paper_L(self, params):
        # L = 1 s / 33 ms = 30 candidate latencies.
        assert params.num_latency_steps == 30

    def test_grid_descends_from_lmax_to_lmin(self, params):
        grid = params.latency_grid()
        assert grid[0] == pytest.approx(1.0)
        assert grid[-1] == pytest.approx(1.0 / 30.0)
        assert all(b < a for a, b in zip(grid, grid[1:]))

    def test_grid_fprs_are_round(self, params):
        # l = k/30 means the FPR ladder is exactly 30/k.
        fprs = sorted(1.0 / l for l in params.latency_grid())
        assert fprs[0] == pytest.approx(1.0)
        assert fprs[-1] == pytest.approx(30.0)

    def test_fpr_bounds(self, params):
        assert params.fpr_cap() == pytest.approx(30.0)


class TestValidation:
    def test_rejects_c1_above_one(self):
        with pytest.raises(ConfigurationError):
            ZhuyiParams(c1=1.5)

    def test_rejects_c4_below_one(self):
        with pytest.raises(ConfigurationError):
            ZhuyiParams(c4=0.9)

    def test_rejects_lmin_above_lmax(self):
        with pytest.raises(ConfigurationError):
            ZhuyiParams(l_min=2.0, l_max=1.0)

    def test_rejects_zero_m(self):
        with pytest.raises(ConfigurationError):
            ZhuyiParams(m=0)

    def test_rejects_negative_k(self):
        with pytest.raises(ConfigurationError):
            ZhuyiParams(k=-1)

    def test_rejects_bad_dl(self):
        with pytest.raises(ConfigurationError):
            ZhuyiParams(dl=0.0)


class TestConfirmationDelay:
    def test_alpha_formula(self, params):
        # alpha = K * (l - l0).
        assert params.confirmation_delay(0.233, 0.033) == pytest.approx(1.0)

    def test_alpha_clamped_at_zero(self, params):
        assert params.confirmation_delay(0.033, 1.0) == 0.0

    def test_alpha_zero_at_l0(self, params):
        assert params.confirmation_delay(0.5, 0.5) == 0.0

    def test_k_zero_disables_alpha(self):
        params = ZhuyiParams(k=0)
        assert params.confirmation_delay(1.0, 0.033) == 0.0

    def test_custom_grid(self):
        params = ZhuyiParams(l_max=0.5, l_min=0.1, dl=0.1)
        grid = params.latency_grid()
        assert grid[0] == pytest.approx(0.5)
        assert grid[-1] == pytest.approx(0.1)
        assert len(grid) == 5
