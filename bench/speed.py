"""Job times at a fixed reference speed of the host.

The shared 2-vCPU host this benchmark was tuned on changes speed by up to 2x
within a second, and its medians drift by 40% over twenty minutes; CPU time
moves with wall time, so neither clock alone compares two runs.  A `Clock`
samples the host's speed while the benchmark runs: a SIGALRM timer runs a
short, fixed, standard-library calibration loop every INTERVAL_S seconds, and
that loop's duration is how slow the host is at that moment.

`Clock.reference(t0, t1)` is the time the `perf_counter` interval [t0, t1]
would have taken on a host that runs the calibration loop in REFERENCE_S
seconds: each stretch of the interval is scaled by REFERENCE_S over the
duration of the sample nearest to it, and the calibration runs inside the
interval are taken out.  Repeating one 2 s `iso` job ten times in one
process, this took its spread (stdev/mean) from 0.24 of wall time to 0.02.
"""

from __future__ import annotations

import bisect
import gc
import signal
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.05
CALIBRATION_TERMS = 600
# the calibration loop's median duration on the host the benchmark was tuned on
REFERENCE_S = 0.0025


def _calibration():
    total = Fraction(0)
    for i in range(1, CALIBRATION_TERMS):
        total += Fraction(1, i % 97 + 1)
    return total


class Clock:
    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.mid = []  # midpoint of each calibration run
        self.cost = []  # its duration

    def _sample(self, signum=None, frame=None):
        enabled = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        _calibration()
        t1 = perf_counter()
        if enabled:
            gc.enable()
        self.mid.append((t0 + t1) / 2)
        self.cost.append(t1 - t0)

    def start(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()
        # sample k stands for the stretch from bounds[k - 1] to bounds[k]
        self.bounds = [(a + b) / 2 for a, b in zip(self.mid, self.mid[1:])]
        self.factor = [REFERENCE_S / c for c in self.cost]
        self.prefix = [0.0, 0.0]  # reference time at the start of each stretch
        for k in range(1, len(self.bounds)):
            self.prefix.append(self.prefix[-1] + (self.bounds[k] - self.bounds[k - 1]) * self.factor[k])

    def _at(self, t):
        k = bisect.bisect_right(self.bounds, t)
        start = self.bounds[k - 1] if k else self.bounds[0]
        # each calibration run inside an interval costs exactly REFERENCE_S
        return self.prefix[k] + (t - start) * self.factor[k] - REFERENCE_S * bisect.bisect_right(self.mid, t)

    def reference(self, t0, t1):
        """Seconds that [t0, t1] would take at the reference speed."""
        return self._at(t1) - self._at(t0)
