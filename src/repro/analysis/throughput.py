"""Figure 1 — expected camera-perception throughput demand.

"We estimate the Tera Operations Per Second (TOPS) assuming the
SSD-Large object detection model is run for 1200x1200 pixel frames on
all 12 cameras (requirement per run is from MLPerf). Since accurate
perception also requires running other camera-based models, we increase
the demand by 20%."

The numbers here are public constants: MLPerf's SSD-ResNet34 ("SSD
Large") costs about 388 GOPs per 1200x1200 frame; DRIVE AGX Xavier
offers 30 INT8 TOPS and Jetson AGX Orin 275 INT8 TOPS.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class PerceptionModel:
    """One perception DNN's per-frame cost."""

    name: str
    giga_ops_per_frame: float
    resolution: tuple[int, int]

    def __post_init__(self) -> None:
        if self.giga_ops_per_frame <= 0.0:
            raise ConfigurationError("per-frame cost must be positive")


@dataclass(frozen=True)
class SoC:
    """An in-vehicle computer's advertised INT8 throughput."""

    name: str
    tops: float

    def __post_init__(self) -> None:
        if self.tops <= 0.0:
            raise ConfigurationError("SoC throughput must be positive")


#: MLPerf inference vision models (per-frame cost in GOPs).
PERCEPTION_MODELS: dict[str, PerceptionModel] = {
    "ssd-large": PerceptionModel(
        name="SSD-Large (SSD-ResNet34)",
        giga_ops_per_frame=388.0,
        resolution=(1200, 1200),
    ),
    "ssd-small": PerceptionModel(
        name="SSD-Small (SSD-MobileNet)",
        giga_ops_per_frame=7.5,
        resolution=(300, 300),
    ),
    "resnet50": PerceptionModel(
        name="ResNet-50 v1.5",
        giga_ops_per_frame=8.2,
        resolution=(224, 224),
    ),
}

#: The paper's two reference SoCs.
SOC_CATALOG: dict[str, SoC] = {
    "xavier": SoC(name="NVIDIA DRIVE AGX Xavier", tops=30.0),
    "orin": SoC(name="NVIDIA Jetson AGX Orin", tops=275.0),
}


@dataclass(frozen=True)
class ThroughputModel:
    """Analytic demand model behind Figure 1.

    Attributes:
        model: the per-camera detection model.
        cameras: number of cameras (the paper assumes 12).
        fpr: frames per second per camera (the default 30-FPR system).
        extra_models_factor: multiplier for the additional camera models
            that reuse extracted features (the paper's +20%).
    """

    model: PerceptionModel = PERCEPTION_MODELS["ssd-large"]
    cameras: int = 12
    fpr: float = 30.0
    extra_models_factor: float = 1.2

    def __post_init__(self) -> None:
        if self.cameras < 1:
            raise ConfigurationError("camera count must be at least 1")
        if self.fpr <= 0.0:
            raise ConfigurationError("FPR must be positive")
        if self.extra_models_factor < 1.0:
            raise ConfigurationError("extra-models factor must be >= 1")

    def demand_tops(self) -> float:
        """Total perception demand in TOPS."""
        per_camera = self.model.giga_ops_per_frame * self.fpr / 1000.0
        return per_camera * self.cameras * self.extra_models_factor

    def utilization(self, soc: SoC) -> float:
        """Demand as a fraction of one SoC's capability."""
        return self.demand_tops() / soc.tops

    def figure1_rows(self) -> list[tuple[str, float]]:
        """The Figure 1 bars: demand plus each reference SoC."""
        rows = [("Perception demand (12 cams @ 30 FPR)", self.demand_tops())]
        for soc in SOC_CATALOG.values():
            rows.append((soc.name, soc.tops))
        return rows
