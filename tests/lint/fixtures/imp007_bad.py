"""IMP007 true-positive corpus: imported names the module never reads.

A name mentioned only in prose, like :class:`Vec2` here, is not read.
"""

from __future__ import annotations

import json  # expect: IMP007
import os.path  # expect: IMP007
from typing import TYPE_CHECKING
from typing import (
    Mapping,
    Sequence,  # expect: IMP007
)

import numpy as np  # expect: IMP007

from repro.geometry.vec import Vec2  # expect: IMP007

if TYPE_CHECKING:
    from repro.road.track import Road  # expect: IMP007


def lookup(table: Mapping[str, int], key: str) -> int:
    return table[key]
