"""IMP007 false-positive corpus: every module-level import is read."""

from __future__ import annotations

import os.path
from typing import TYPE_CHECKING, Mapping

import numpy as np

if TYPE_CHECKING:
    from repro.road.track import Road

try:
    import tomllib
except ImportError:
    tomllib = None


def lookup(table: Mapping[str, int], key: str) -> int:
    # A function's own import is not module-level.
    import re

    return table[key]


def has_config(path: str) -> bool:
    return tomllib is not None and os.path.exists(path)


def lane_widths(roads: list["Road"]) -> "np.ndarray":
    # Road is read only in string annotations.
    return np.array([road.lane_width for road in roads])
