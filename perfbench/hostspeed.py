"""Host-speed probe: a fixed pure-Python loop, timed from a timer signal.

The benchmark runs on a shared host whose speed changes by up to 1.7x, in
spells from under a second to many minutes, and every time the program
takes moves with it (README, Noise).  While a run measures, a wall-clock
timer interrupts it every ``INTERVAL_S`` and times the same small loop.  The
loop does not touch the program or allocate, so its time measures the host,
not the code under test, and the probes are spread over the run in
proportion to time, set-up and measured phases alike.  ``run.py`` scales the
end-to-end times to the speed at which the probe takes ``REFERENCE_S``.
"""

from __future__ import annotations

import signal
import statistics

#: Probe time, in seconds, at the reference host speed: about the fastest
#: probe on a 2-vCPU Xeon guest.  Scaled times are the times the program
#: would take at that speed.
REFERENCE_S = 0.0006

#: Wall seconds between probes: about 400 in a 40 s run, which the probes
#: slow by under 1%.
INTERVAL_S = 0.1

_ITERATIONS = 4000


def _work():
    total = 0
    for i in range(_ITERATIONS):
        total += i ^ (total >> 2)
    return total


class HostSpeed:
    """Probes the host every ``INTERVAL_S`` while the context is open."""

    def __init__(self, clock):
        self.clock = clock
        self.times = []
        self._previous = None

    def _probe(self, signum=None, frame=None):
        start = self.clock()
        _work()
        self.times.append(self.clock() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        # A run shorter than one interval still gets one probe.
        self._probe()
        return False

    def factor(self):
        """Mean probe time over the reference: above 1 on a slow host.

        The mean, not the median: the host flips between a fast and a slow
        speed, and the mean of probes spread evenly in time moves with the
        share of time spent in each, as the program's times do.
        """
        return statistics.fmean(self.times) / REFERENCE_S
