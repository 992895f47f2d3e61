"""Machine-speed calibration: a fixed reference loop, timed all through a run.

The reference machine is a shared virtual machine whose speed switches
between a fast and a slow state, about 1.6-1.9x apart, that last from tens
of milliseconds to minutes and often a whole run: CPU time and wall time of
an op agree, the machine itself runs slower.  Runs of the same code then
differ by more than any bound a regression check could use.  So an
interval timer runs this reference every PERIOD_S of wall time, inside ops
as well as between them, and every timing is scaled by NOMINAL_S over the
mean of the samples taken during it and the nearest one on each side:
timings are reported at the machine speed at which the reference takes
NOMINAL_S.  The time the samples take is taken out of the timings.  The
reference is benchmark code (interpreted exact-rational arithmetic, dict
and string work, like the program's), so a change to the program does not
move it.
"""

from __future__ import annotations

import gc
import signal
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

# The reference takes about this long on the reference machine in its slow
# state; scaled timings are close to measured ones there.
NOMINAL_S = 0.004
PERIOD_S = 0.05


def reference() -> float:
    """Seconds the reference loop takes now.  The collector is off while it
    runs, so the program's heap does not change its time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        x, seen = Fraction(1, 3), {}
        for i in range(250):
            x = (x * Fraction(7, 5) + Fraction(1, i + 2)) / Fraction(11, 10)
            seen[str(i)] = x.numerator % 97
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Samples the reference on entry, every PERIOD_S from SIGALRM while
    entered, and on exit.  ``scaled`` needs the sample taken on exit."""

    def __init__(self):
        self.at: list[float] = []     # when each sample started
        self.busy: list[float] = []   # how long each took, handler and all
        self.ref: list[float] = []    # the reference's own time

    def sample(self, *_) -> None:
        start = perf_counter()
        self.ref.append(reference())
        self.at.append(start)
        self.busy.append(perf_counter() - start)

    def __enter__(self) -> Sampler:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def own(self, start: float, end: float) -> float:
        """Seconds from start to end, less the samples taken in between."""
        i, j = bisect_right(self.at, start), bisect_left(self.at, end)
        return end - start - sum(self.busy[i:j])

    def scaled(self, start: float, end: float) -> float:
        """``own(start, end)`` at the nominal machine speed."""
        i, j = bisect_right(self.at, start), bisect_left(self.at, end)
        refs = self.ref[i - 1:j + 1]
        return self.own(start, end) * NOMINAL_S * len(refs) / sum(refs)
