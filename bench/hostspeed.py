"""Host-speed reference: scales wall times to a nominal speed of a shared host.

On a shared host the same Python code ran up to 60% slower within a minute,
and there are no hardware counters to count cycles instead.  A fixed
pure-Python reference workload, independent of gathersim, is timed between
items, and each item's wall time is scaled by ``NOMINAL_S`` over the mean
of the samples just before and just after it.  Interleaved in 50 ms steps
with a class-A classification at n=20, the reference tracked it closely:
over 150 s the classification's time varied by 12.8% (coefficient of
variation over 3 s windows), its ratio to the reference by 1.6%.  Samples
can only be taken between items, so a run lasting seconds is scaled by the
host speed at its two ends; one factor per pass, from the median sample,
followed the drift of the host less well on such runs.
"""

from __future__ import annotations

import bisect
import math
import time

# Reference time on a quiet 2-core Intel Xeon host (Python 3.11); a scaled
# time is the wall time the same work would take on a host that runs the
# reference in exactly this long.
NOMINAL_S = 0.007
# take a new reference sample before an item once the last one is this old
INTERVAL_S = 0.1

_POINTS = [(math.cos(k * 2.399) * (1 + k % 7), math.sin(k * 2.399) * (1 + k % 5)) for k in range(48)]


def _reference_unit() -> float:
    total = 0.0
    for cx, cy in _POINTS[:12]:
        angles = sorted(math.atan2(y - cy, x - cx) for x, y in _POINTS)
        total += max(b - a for a, b in zip(angles, angles[1:]))
        total += sum(math.hypot(x - cx, y - cy) for x, y in _POINTS)
    return total


def reference_sample() -> float:
    """Seconds the fixed reference workload takes right now."""
    t0 = time.perf_counter()
    for _ in range(20):
        _reference_unit()
    return time.perf_counter() - t0


class Sampler:
    """Reference samples taken between the items of one pass."""

    def __init__(self) -> None:
        self.positions: list[int] = []
        self.seconds: list[float] = []
        self._last = -math.inf

    def before(self, position: int, force: bool = False) -> None:
        """Sample before item ``position`` if the last sample is old enough."""
        if force or time.perf_counter() - self._last >= INTERVAL_S:
            self.positions.append(position)
            self.seconds.append(reference_sample())
            self._last = time.perf_counter()

    def factors(self, count: int) -> list[float]:
        """Per item: NOMINAL_S over the mean of the samples just before and after it.

        Needs a sample before item 0 and one after the last item (position
        ``count``).
        """
        out = []
        for i in range(count):
            k = bisect.bisect_right(self.positions, i)
            out.append(NOMINAL_S / ((self.seconds[k - 1] + self.seconds[k]) / 2.0))
        return out
