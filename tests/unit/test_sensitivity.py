"""Figure 8 sensitivity sweep (small grids for speed)."""

import numpy as np
import pytest

from repro.analysis.sensitivity import sweep_min_fpr
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def grid_30():
    return sweep_min_fpr(
        gap=30.0,
        ego_speeds_mph=np.linspace(0.0, 70.0, 8),
        actor_speeds_mph=np.linspace(0.0, 70.0, 8),
    )


@pytest.fixture(scope="module")
def grid_100():
    return sweep_min_fpr(
        gap=100.0,
        ego_speeds_mph=np.linspace(0.0, 70.0, 8),
        actor_speeds_mph=np.linspace(0.0, 70.0, 8),
    )


class TestShape:
    def test_grid_dimensions(self, grid_30):
        assert grid_30.min_fpr.shape == (8, 8)

    def test_low_speed_band_is_low_fpr(self, grid_30, grid_100):
        # "For an ego operating on streets (0-25 mph) ... FPR <= 2 is
        # enough for safety" in both panels.
        assert grid_30.band_max(0.0, 25.0) <= 2.0
        assert grid_100.band_max(0.0, 25.0) <= 2.0

    def test_short_gap_has_unavoidable_wedge(self, grid_30):
        # High ego speed toward a stopped actor 30 m away: hopeless.
        assert grid_30.region_fraction(grid_30.white_mask()) > 0.1

    def test_long_gap_mostly_feasible(self, grid_100):
        assert grid_100.region_fraction(grid_100.white_mask()) < 0.1

    def test_longer_gap_never_harder(self, grid_30, grid_100):
        # Cell-wise: 100 m can never demand more than 30 m.
        a = grid_30.min_fpr
        b = grid_100.min_fpr
        both = ~np.isnan(a) & ~np.isnan(b)
        assert np.all(b[both] <= a[both] + 1e-9)
        # And nothing unavoidable at 100 m that was fine at 30 m.
        assert not np.any(np.isnan(b) & ~np.isnan(a))

    def test_demand_monotone_in_ego_speed(self, grid_30):
        # Along each row (fixed actor speed), requirement never decreases
        # with ego speed (NaN = infinity; inf-inf diffs are vacuous).
        filled = np.nan_to_num(grid_30.min_fpr, nan=np.inf)
        with np.errstate(invalid="ignore"):
            diffs = np.diff(filled, axis=1)
        assert np.all((diffs >= -1e-9) | np.isnan(diffs))

    def test_demand_monotone_in_actor_speed(self, grid_30):
        # Along each column (fixed ego speed), a faster actor never
        # raises the requirement.
        filled = np.nan_to_num(grid_30.min_fpr, nan=np.inf)
        with np.errstate(invalid="ignore"):
            diffs = np.diff(filled, axis=0)
        assert np.all((diffs <= 1e-9) | np.isnan(diffs))


class TestMasks:
    def test_white_is_nan(self, grid_30):
        assert np.all(np.isnan(grid_30.min_fpr[grid_30.white_mask()]))

    def test_max_finite(self, grid_30):
        assert grid_30.max_finite_fpr() <= 31.0


class TestValidation:
    def test_rejects_bad_gap(self):
        with pytest.raises(ConfigurationError):
            sweep_min_fpr(gap=0.0)

    @pytest.mark.parametrize("empty", ["ego", "actor"])
    def test_rejects_empty_speed_axis(self, empty):
        # An empty axis would render an empty heatmap and report a
        # maximum FPR of 0 as if the sweep had found one.
        speeds = {"ego": np.linspace(0.0, 70.0, 3), "actor": np.array([10.0])}
        speeds[empty] = np.array([])
        with pytest.raises(ConfigurationError, match="at least one speed"):
            sweep_min_fpr(
                gap=30.0,
                ego_speeds_mph=speeds["ego"],
                actor_speeds_mph=speeds["actor"],
            )
