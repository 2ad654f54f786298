"""2-D geometry substrate: vectors, frames, oriented boxes and FOV sectors.

The Zhuyi paper works in a 2-D top view ("world reference frame" with X
longitudinal and Y lateral of the ego, Figure 2). Everything geometric in
this reproduction — road layout, vehicle footprints, collision checks and
camera fields of view — is built from these primitives.
"""

from repro.geometry.vec import Vec2
from repro.geometry.transforms import Frame2
from repro.geometry.boxes import (
    OrientedBox,
    boxes_overlap,
    segment_intersects_box,
)
from repro.geometry.fov import AngularSector

__all__ = [
    "Vec2",
    "Frame2",
    "OrientedBox",
    "boxes_overlap",
    "segment_intersects_box",
    "AngularSector",
]
