"""Machine speed, sampled while the benchmark runs, to scale its timings.

The speed of a shared box drifts by about +-25% within a minute (on the
2-core shared Xeon virtual machine it was built on, two identical rounds of one
run took 6.8 s and 10.6 s), and the drift moves the library's code and a
fixed slice of rational arithmetic together, though not exactly in
proportion.  So while a run measures, a timer signal every ``TICK_S`` runs
that slice, exact rational elimination like the library's own work, and
records how long it took.  Each timed step then has the ticks inside it
subtracted and is multiplied by ``REF_S`` over the median tick around it,
raised to ``EXPONENT``, which gives its time at the reference speed: the
speed at which a tick takes ``REF_S``.  Ticks taken inside an op track drift during long ops, which
slices timed between ops do not: on a 0.5 s op repeated for a minute, the
quartile spread was 0.14 raw, 0.15 scaled by slices between ops and 0.065
scaled by ticks inside it.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

TICK_S = 0.02
REF_S = 0.00054       # one tick at the reference speed
MIN_TICKS = 15        # a step shorter than this many ticks borrows neighbours
# The library's time moves less than the tick's as the box speeds up and
# slows down: over about 90 runs of the four workloads, a run's raw time went
# as its median tick to the power 0.5 to 0.7 (least squares on the logs).
EXPONENT = 0.6
_MATRIX = ((2, -1, 0, 3), (-1, 2, -1, 1), (0, -1, 2, 5), (1, 1, 1, 1))


def _eliminate(matrix):
    rows = [[Fraction(x) for x in row] for row in matrix]
    for c in range(len(rows)):
        pivot = next(i for i in range(c, len(rows)) if rows[i][c])
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for i, row in enumerate(rows):
            if i != c and row[c]:
                f = row[c] / rows[c][c]
                rows[i] = [a - f * b for a, b in zip(row, rows[c])]
    return rows


class SpeedProbe:
    """Ticks of a fixed slice of work, taken from ``SIGALRM`` while entered."""

    def __init__(self):
        self.starts = []
        self.durations = []
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:  # a tick that arrives during a tick is dropped
            return
        self._busy = True
        # collector off, so that no collection of the program's objects
        # lands in the slice
        was_enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        for _ in range(3):
            _eliminate(_MATRIX)
        self.durations.append(time.perf_counter() - start)
        self.starts.append(start)
        if was_enabled:
            gc.enable()
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def spent(self, start: float, end: float) -> float:
        """Seconds of ticks inside [start, end).  A tick runs to its end
        before the interrupted code resumes, so one that starts inside a
        span also ends inside it."""
        return sum(self.durations[bisect.bisect_left(self.starts, start):
                                  bisect.bisect_left(self.starts, end)])

    def adjust(self, start: float, end: float) -> tuple:
        """(seconds of ticks inside [start, end), scale factor there)."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        spent = self.spent(start, end)
        if hi - lo < MIN_TICKS:
            middle = (lo + hi) // 2
            lo = max(0, middle - MIN_TICKS // 2)
            hi = min(len(self.durations), lo + MIN_TICKS)
        if hi <= lo:
            return spent, 1.0
        return spent, (REF_S / statistics.median(self.durations[lo:hi])) ** EXPONENT
