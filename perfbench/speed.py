"""Machine-speed probe: turns measured seconds into reference seconds.

On a shared host the same Python work can take twice as long from one
minute to the next, because other tenants slow the CPU itself (process
time tracks wall time).  The probe measures that slowdown while the
program runs: every ``INTERVAL`` seconds a SIGALRM handler times a fixed
pure-Python loop in this process.  An op of ``t`` measured seconds (the
handler's own time taken out) is reported as ``t * mean(REFERENCE / s_i)``
over the loop times ``s_i`` sampled during it, that is, in seconds at the
speed where the loop takes ``REFERENCE`` seconds.  A change to the program
moves the reference seconds just as it moves the measured ones; a change in
the machine's load largely cancels.

The probe uses a timer signal of this process only; it starts no thread.
"""

from __future__ import annotations

import signal
import time

REFERENCE = 0.00015  # seconds per calibration loop at reference speed
INTERVAL = 0.02  # seconds between samples
FALLBACK_SAMPLES = 5  # an op too short to be sampled uses the latest samples
_TABLE = [[(i * 7 + j * 3) % 8 for j in range(8)] for i in range(8)]


def calibration_loop(n=2000):
    """Fixed work: nested list indexing, the program's commonest step.  It
    allocates no container, so it never triggers the garbage collector
    over the program's heap.  (A dict-update loop tracked the program's
    slowdown less well; a random walk over a 6 MB table, much worse.)"""
    t = _TABLE
    x, y = 1, 2
    for _ in range(n):
        x = t[x][y]
        y = t[y][x ^ 5]
    return x + y


class SpeedProbe:
    def __init__(self):
        self.samples = []
        self.spent = 0.0  # seconds spent inside the handler
        self._previous = None
        self._busy = False

    def _handler(self, signum, frame):
        if self._busy:  # a signal that lands while sampling is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        calibration_loop()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0
        self._busy = False

    def start(self):
        calibration_loop()  # warm up
        self._handler(signal.SIGALRM, None)  # a first sample, so factor() never guesses
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def mark(self):
        """State at the start of a timed region, for :meth:`measure`."""
        return len(self.samples), self.spent, time.perf_counter()

    def measure(self, mark):
        """(measured seconds, reference seconds) since mark."""
        first, spent, t0 = mark
        seconds = time.perf_counter() - t0 - (self.spent - spent)
        return seconds, seconds * self.factor(first)

    def factor(self, first):
        """Mean of REFERENCE / s over the samples since index first, or
        over the latest FALLBACK_SAMPLES when there are none."""
        window = self.samples[first:] or self.samples[-FALLBACK_SAMPLES:]
        if not window:  # a probe never started reports measured seconds
            return 1.0
        return sum(REFERENCE / s for s in window) / len(window)
