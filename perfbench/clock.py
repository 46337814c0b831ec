"""Timing corrected for the speed the machine runs at while it is measured.

The benchmark runs on shared cores.  Other tenants slow a pure-Python loop
here by up to ~45 %, in bursts of one to tens of seconds, so the wall time of
the same run of the same code moves by 20-30 % between runs.  A time divided
by the machine's speed at that moment does not: ``SpeedSampler`` runs a fixed
calibration from a SIGALRM handler every ``PERIOD`` seconds (in the main
thread, between bytecodes; no thread is started), and ``reference_seconds``
turns a wall-clock interval into the time it would have taken with the
calibration at ``CALIBRATION_REF``.  The calibration mixes the three kinds of
work the library does: small-integer arithmetic in the interpreter (the Hasse
sweep, rho), big-integer arithmetic (mpmath's pure-Python backend) and
container and call overhead.  Time spent in the handler is not charged to the
interval it interrupts.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PERIOD = 0.1
WINDOW = 0.25  # seconds either side of an interval whose samples give its speed
CALIBRATION_REF = 1.3e-3  # seconds calibrate() takes here when no other tenant is busy
_BIG = (1 << 2048) // 7


def calibrate() -> float:
    """Seconds a fixed mix of interpreter work takes now."""
    start = time.perf_counter()
    x = 12345
    for i in range(2500):
        x = (x * x + i) % 1000003
    y = _BIG
    for i in range(300):
        y = ((y * _BIG) >> 2048) + i
    table, stack = {}, []
    for i in range(750):
        table[i & 63] = (i, i + 1)
        stack.append(table[i & 63][0])
        if len(stack) > 32:
            stack.pop()
    return time.perf_counter() - start


def calibrated_seconds(fn, *args):
    """Run fn once; its wall time scaled by the median of three calibrations after it."""
    start = time.perf_counter()
    result = fn(*args)
    wall = time.perf_counter() - start
    speed = statistics.median(calibrate() for _ in range(3))
    return wall * CALIBRATION_REF / speed, result


class SpeedSampler:
    """Calibration samples taken every PERIOD seconds while the sampler is active."""

    def __init__(self):
        self.times = []  # start of each sample
        self.costs = []  # its calibration time
        self.pauses = []  # the whole handler's time

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        cost = calibrate()
        self.times.append(start)
        self.costs.append(cost)
        self.pauses.append(time.perf_counter() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def wall_and_scale(self, start, end):
        """The wall-clock interval [start, end] less the samples taken inside
        it, and the factor that turns it into seconds at reference speed.

        The speed is the mean calibration time of the samples within WINDOW of
        the interval, which smooths one sample's noise for operations shorter
        than PERIOD.
        """
        inside = slice(bisect.bisect_left(self.times, start),
                       bisect.bisect_right(self.times, end))
        wall = end - start - sum(self.pauses[inside])
        lo = bisect.bisect_left(self.times, start - WINDOW)
        hi = bisect.bisect_right(self.times, end + WINDOW)
        costs = self.costs[lo:hi] or self.costs[max(hi - 1, 0):hi]
        return wall, CALIBRATION_REF / statistics.fmean(costs)

    def reference_seconds(self, start, end):
        """The work done in the wall-clock interval [start, end], in seconds at
        reference speed."""
        wall, scale = self.wall_and_scale(start, end)
        return wall * scale
