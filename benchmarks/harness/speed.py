"""Speed of the machine, measured by a fixed loop between units.

A shared machine changes speed for tens of seconds at a time: a pure
Python loop runs at one rate for half a minute and 1.5x faster for the
next.  Best-of or median statistics inside one run cannot remove a change
that lasts the whole run.  So the timed phase samples the speed of a fixed
loop (the best of three runs of it, in Python and small numpy calls, like
the package) about every ``EVERY_S`` seconds, and each unit's wall time is
scaled by ``REFERENCE_S`` over the loop time measured around it.  A
scaled time reads as the time on a machine on which the loop takes
``REFERENCE_S``.  The loop is benchmark code, so no change to the package
can alter it.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

REFERENCE_S = 150e-6  # the loop's time on the reference machine
EVERY_S = 0.1         # seconds between samples in the timed phase
NEIGHBOURS = 2        # samples on each side of a time that set its speed
_VECTOR = np.linspace(0.0, 1.0, 256)


def _loop():
    x = 0.0
    for i in range(400):
        x += math.sin(i * 1e-3) * math.sqrt(i + 1.0)
    v = _VECTOR
    for _ in range(40):
        v = np.sqrt(v * v + 1e-3)
    return x + float(v[0])


class SpeedLog:
    """Samples of the loop's time; ``scale(t)`` converts wall time at ``t``."""

    def __init__(self):
        self.times = []
        self.samples = []

    def sample(self):
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            _loop()
            best = min(best, time.perf_counter() - t0)
        self.times.append(time.perf_counter())
        self.samples.append(best)

    def due(self, now):
        return not self.times or now - self.times[-1] >= EVERY_S

    def scale(self, t):
        """REFERENCE_S over the median loop time of the samples nearest to ``t``."""
        j = bisect.bisect(self.times, t)
        near = self.samples[max(0, j - NEIGHBOURS): j + NEIGHBOURS]
        return REFERENCE_S / statistics.median(near)
