"""The MRF verdict and Table 1 as a campaign (reduced grids for test speed)."""

import pytest

from repro.batch import (
    Campaign,
    CampaignRunner,
    campaign_table1,
    render_campaign_table,
)
from repro.errors import ConfigurationError
from repro.system.mrf import MRFResult, mrf_verdict


def _live_mrf(scenario, fprs, seeds=(0,)):
    campaign = Campaign(scenarios=(scenario,), seeds=seeds, fprs=fprs)
    result = CampaignRunner().run(campaign)
    assert not result.failures()
    (row,) = campaign_table1(result)
    return row.mrf


class TestMRFFromCache:
    def test_mrf_above_all_collisions(self):
        result = mrf_verdict(
            "cut_out", {1.0: [True], 2.0: [True], 3.0: [False], 5.0: [False]}
        )
        assert result.mrf == 3.0
        assert result.label == "3"
        assert result.collision_fprs == (1.0, 2.0)
        assert result.safe_fprs == (3.0, 5.0)

    def test_all_safe_gives_below_label(self):
        result = mrf_verdict("cut_in", {1.0: [False], 2.0: [False]})
        assert result.mrf == 1.0
        assert result.label == "<1"

    def test_all_unsafe_gives_none(self):
        result = mrf_verdict("cut_out", {1.0: [True], 2.0: [True]})
        assert result.mrf is None
        assert result.label == "unsafe"

    def test_any_seed_collision_counts(self):
        result = mrf_verdict(
            "cut_out", {1.0: [False, True], 2.0: [False, False]}
        )
        assert result.mrf == 2.0

    def test_non_monotone_collisions_handled(self):
        # A freak collision at a higher rate pushes the MRF above it.
        result = mrf_verdict(
            "cut_out", {1.0: [False], 2.0: [True], 3.0: [False]}
        )
        assert result.mrf == 3.0

    def test_rate_without_outcome_is_no_evidence(self):
        # Every run at 3 FPR failed: that rate is neither safe nor
        # colliding and cannot be the MRF, even though it is the lowest
        # rate above the collision. The grid order does not matter.
        result = mrf_verdict(
            "cut_out", {5.0: [False], 3.0: [], 2.0: [True], 1.0: [False]}
        )
        assert result.mrf == 5.0
        assert result.collision_fprs == (2.0,)
        assert result.safe_fprs == (1.0, 5.0)
        # A grid with no outcome at all has no verdict.
        assert mrf_verdict("cut_out", {1.0: [], 2.0: []}).mrf is None

    def test_rejects_empty_grid(self):
        with pytest.raises(ConfigurationError):
            Campaign(scenarios=("cut_out",), fprs=())
        with pytest.raises(ConfigurationError):
            Campaign(scenarios=("cut_out",), seeds=())


@pytest.mark.slow
class TestMRFLive:
    def test_cut_out_mrf_matches_paper(self):
        result = _live_mrf("cut_out", (1.0, 2.0, 3.0))
        assert isinstance(result, MRFResult)
        assert result.mrf == 2.0  # the paper's value

    def test_vehicle_following_safe_at_floor(self):
        result = _live_mrf("vehicle_following", (1.0, 2.0))
        assert result.label == "<1"


@pytest.mark.slow
class TestTable1Harness:
    @pytest.fixture(scope="class")
    def small_table(self):
        campaign = Campaign(
            scenarios=("cut_out", "vehicle_following"),
            seeds=(0,),
            fprs=(2.0, 5.0, 30.0),
        )
        result = CampaignRunner().run(campaign)
        assert not result.failures()
        return result, campaign_table1(result)

    def test_one_row_per_scenario(self, small_table):
        _, rows = small_table
        assert [row.scenario for row in rows] == [
            "cut_out", "vehicle_following"
        ]

    def test_estimates_above_mrf(self, small_table):
        # The paper's validation: estimated FPR >= MRF wherever a real
        # MRF exists (some rate actually collided; a "<x" label only
        # bounds the MRF from above).
        _, rows = small_table
        for row in rows:
            if row.mrf.mrf is None or not row.mrf.collision_fprs:
                continue
            for estimate in row.mean_estimates.values():
                if estimate is not None:
                    assert estimate >= row.mrf.mrf - 1e-6

    def test_na_below_mrf(self, small_table):
        _, rows = small_table
        cut_out = rows[0]
        assert cut_out.mean_estimates[2.0] is not None  # MRF is 2
        assert cut_out.mrf.mrf == 2.0

    def test_fraction_within_headline(self, small_table):
        _, rows = small_table
        for row in rows:
            assert row.fraction <= 0.36 + 1e-6

    def test_render_includes_all_rows(self, small_table):
        result, _ = small_table
        text = render_campaign_table(result)
        assert "cut_out" in text
        assert "vehicle_following" in text
        assert "Fraction" in text

    def test_rows_pinned_to_serial_harness(self, small_table):
        # Recorded from the serial Table 1 harness this campaign path
        # replaced, on the same grid: the rows must not move a bit.
        _, rows = small_table
        pinned = {
            "cut_out": (
                {2.0: 5.999999988000001, 5.0: 2.3076923094674555,
                 30.0: 1.875000001171875},
                7.999999988000001,
                0.08888888875555556,
            ),
            "vehicle_following": (
                {2.0: 1.49999999925, 5.0: 2.5, 30.0: 3.7499999953125},
                5.7499999953125,
                0.06388888883680556,
            ),
        }
        for row in rows:
            means, max_total, fraction = pinned[row.scenario]
            assert row.mrf == MRFResult(
                scenario=row.scenario,
                mrf=2.0,
                collision_fprs=(),
                safe_fprs=(2.0, 5.0, 30.0),
            )
            assert row.mrf.label == "<2"
            assert dict(row.mean_estimates) == means
            assert row.max_total_fpr == max_total
            assert row.fraction == fraction
