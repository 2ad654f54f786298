"""Figure 1 throughput model."""

import pytest

from repro.analysis.throughput import (
    PERCEPTION_MODELS,
    SOC_CATALOG,
    PerceptionModel,
    ThroughputModel,
)
from repro.errors import ConfigurationError


class TestDemand:
    def test_paper_configuration(self):
        # 388 GOPs * 30 FPR * 12 cams * 1.2 = 167.6 TOPS.
        model = ThroughputModel()
        assert model.demand_tops() == pytest.approx(167.6, abs=0.1)

    def test_exceeds_xavier(self):
        model = ThroughputModel()
        assert model.utilization(SOC_CATALOG["xavier"]) > 5.0

    def test_fits_orin_alone(self):
        # The raw detection demand fits Orin, but uses more than half of
        # it — the paper's motivation that perception alone dominates.
        model = ThroughputModel()
        assert 0.5 < model.utilization(SOC_CATALOG["orin"]) <= 1.0

    def test_demand_scales_with_fpr(self):
        assert ThroughputModel(fpr=15.0).demand_tops() == pytest.approx(
            ThroughputModel().demand_tops() / 2.0
        )

    def test_smaller_model_much_cheaper(self):
        small = ThroughputModel(model=PERCEPTION_MODELS["ssd-small"])
        assert small.demand_tops() < 10.0

    def test_figure1_rows(self):
        rows = ThroughputModel().figure1_rows()
        assert len(rows) == 3
        labels = [label for label, _ in rows]
        assert any("Xavier" in label for label in labels)
        assert any("Orin" in label for label in labels)


class TestValidation:
    def test_rejects_zero_cameras(self):
        with pytest.raises(ConfigurationError):
            ThroughputModel(cameras=0)

    def test_rejects_discount_factor(self):
        with pytest.raises(ConfigurationError):
            ThroughputModel(extra_models_factor=0.8)

    def test_rejects_bad_model(self):
        with pytest.raises(ConfigurationError):
            PerceptionModel("x", -1.0, (10, 10))

    def test_rejects_bad_fpr_query(self):
        with pytest.raises(ConfigurationError):
            ThroughputModel(fpr=0.0)
