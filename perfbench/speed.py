"""The host's speed, measured by a fixed reference job run between ops.

The benchmark's reference host is a shared virtual machine whose speed
drifts with its neighbours' load, by 20-60% over minutes, and it drifts
alike for interpreter loops, dict work, big-integer and Fraction arithmetic,
the kinds of work cusp_ledger does.  Its speed also holds for a while: two
samples 0.2 s apart correlate at 0.87, and still at 0.67 one second apart.
So a run takes short reference samples between its ops, at most every
EVERY_S seconds, and reports each time scaled to a fixed host speed:

    reported = measured * NOMINAL_S / (median of the NEAREST samples)

where the nearest samples are those closest in time to the middle of what
was measured.  A reported time is therefore in seconds at the speed under
which the reference takes NOMINAL_S (about the reference host's usual
speed); the unscaled batch times are printed beside them.  The
reference job is this file's own code and never calls cusp_ledger, so a
change to the program moves the reported times by what it saves or costs.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.004   # the reference job's time at the nominal host speed
EVERY_S = 0.1       # least time between samples within a pass
NEAREST = 7         # samples that set the speed at one moment


def reference() -> tuple:
    """One fixed job: an integer loop, tuple-keyed dict updates, big-integer
    products and quotients, and a Fraction sum."""
    s = 0
    for i in range(12_000):
        s += i * i % 7
    d = {}
    for i in range(3_000):
        k = (i % 101, i % 7)
        d[k] = d.get(k, 0) + i
    a, b = 3 ** 4000, 7 ** 1500
    for i in range(12):
        s += a * (b + i) // (b - i) % 97
    f = Fraction(0)
    for i in range(1, 180):
        f += Fraction(i % 13 + 1, i % 17 + 1)
    return s, len(d), f


class Speed:
    """Reference samples of one stretch of a run: a pass over the batch, or
    a burst of fresh starts."""

    def __init__(self, every: float = 0.0):
        self.every = every
        self.samples: list[tuple[float, float]] = []   # (middle, duration)
        self._last = float("-inf")

    def sample(self) -> None:
        """Time the reference job, unless the last sample ended less than
        `every` seconds ago.  The collector is off meanwhile: how often it
        runs depends on the program's heap, not on the host."""
        start = time.perf_counter()
        if start - self._last < self.every:
            return
        gc.disable()
        try:
            reference()
        finally:
            gc.enable()
        self._last = time.perf_counter()
        self.samples.append(((start + self._last) / 2, self._last - start))

    def factor(self, start: float, end: float) -> float:
        """What a time measured from `start` to `end` (perf_counter
        readings) is multiplied by: NOMINAL_S over the median of the
        NEAREST samples around its middle."""
        middle = (start + end) / 2
        near = sorted(self.samples, key=lambda s: abs(s[0] - middle))
        return NOMINAL_S / statistics.median(d for _, d in near[:NEAREST])
