"""Timing at a reference machine speed, for hosts whose speed drifts.

On the shared 2-core x86 VMs this benchmark was built on, one job's wall
time swung by up to 2x within minutes, and a 35 s run could sit wholly in a
fast or a slow phase.  ``SpeedProbe`` times a fixed pure-Python snippet from
a SIGALRM handler every ``PERIOD_S`` while the timed work runs, so the
snippet sees the same machine state as the work.  ``seconds()`` is the
work's own time (wall time minus the snippets) rescaled to the speed at
which the snippet takes ``REFERENCE_S``.  Over rounds of five or ten 35 s
runs per workload, run medians of raw wall time spread 12-68% (quartile
distance over median); those of the rescaled time spread 2-7%.  The snippet
touches no ltvlab code, so a change to ltvlab cannot move it.

Stdlib only: the set-up probe starts one before numpy is imported.
"""

import math
import signal
import statistics
import time

PERIOD_S = 0.01
REFERENCE_S = 7.5e-5  # the snippet's median time on a 2-core x86 VM


def snippet():
    x, total = 0.5, 0.0
    for i in range(150):
        x = 3.9 * x * (1.0 - x)
        total += math.log(x + 1.0) + (i * i) % 7
    return total


class SpeedProbe:
    """Context manager: samples the snippet's time while the block runs."""

    def __init__(self):
        self.samples = []
        self.wall = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        snippet()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.wall = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)

    def seconds(self):
        """The block's time without the snippets, at the reference speed."""
        work = self.wall - sum(self.samples)
        if not self.samples:  # shorter than one period: nothing to scale by
            return work
        return work * REFERENCE_S / statistics.fmean(self.samples)
