"""Reference seconds: wall time corrected for how fast the machine ran.

A shared 2-vCPU virtual machine switches between a fast and a slow mode
(up to 1.5x apart) every few seconds to minutes, with no steal time
visible to the guest; CPU time slows down with wall time. Raw wall
times of identical work therefore spread by 20-40% from run to run.

A :class:`Speedometer` samples the machine's speed while the benchmark
works: a timer signal interrupts the main thread every ``period``
seconds and times a fixed calibration loop of small numpy operations,
dict updates and integer math (about 1 ms, so the samples cost about 1%
of the run). :meth:`Speedometer.seconds` turns an interval of wall time into
*reference seconds*: the interval, less the calibration time inside it,
scaled by the mean of ``REFERENCE_S / sample`` over the samples taken
in it. A reference second is the time work takes while the calibration
loop runs in ``REFERENCE_S`` — about the fast mode of the 2-vCPU x86_64
machine (Python 3.11, numpy 2.4) the benchmark was written on.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

import numpy as np

#: Calibration-loop time that defines a reference second (seconds).
REFERENCE_S = 1.0e-3


def calibration_loop() -> float:
    """A fixed mix of small-array numpy calls, dict updates and integer math.

    The parts slow down by different factors when the machine does, and
    no single part tracked every workload in probes, so the loop mixes
    them in about equal time.
    """
    x = np.arange(3.0)
    acc = 0.0
    for i in range(150):
        y = np.sqrt(x * x + acc)
        acc = float(y[1]) * 0.5 + math.hypot(i, 1.0) * 1e-3
    table: dict[int, int] = {}
    for i in range(2000):
        table[i % 50] = table.get(i % 50, 0) + i
    total = 0
    for i in range(7000):
        total += i * i % 7
    return acc + total


class Speedometer:
    """Samples the calibration loop from ``SIGALRM`` inside a ``with`` block.

    Attributes:
        starts: wall time at which each sample began, ascending.
        samples: each sample's calibration-loop duration.
    """

    def __init__(self, period: float = 0.1):
        self.period = period
        self.starts: list[float] = []
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        calibration_loop()
        self.starts.append(started)
        self.samples.append(time.perf_counter() - started)

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds of the wall-time interval ``[start, end]``.

        Intervals shorter than the sampling period use the samples
        nearest to them.
        """
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_right(self.starts, end)
        inside = self.samples[first:last]
        work = (end - start) - sum(inside)
        nearby = inside or self.samples[max(first - 1, 0):first + 1]
        if not nearby:
            return work
        return work * statistics.fmean(REFERENCE_S / sample for sample in nearby)
