"""Timings scaled to a fixed machine speed.

On a few vCPUs of a shared host the speed of the same pure-Python code
drifts within seconds: a fixed `Fraction` loop on a 2-vCPU Xeon VM
(Python 3.11.7) took 20 ms to 39 ms per call over a few minutes, and its
CPU time followed its wall time, so neither clock cancels the drift.  The
median of one run then depends more on when the run happened than on
the program.

`SpeedMeter` measures the machine's speed while an interval is timed.  A
SIGALRM handler runs a fixed reference kernel (pure-Python `Fraction`
arithmetic, like the package's own work) every PERIOD_S seconds and
times it; the kernel also runs once just before and once just after the
interval.  The interval's time, less the time spent in the handler, is
multiplied by KERNEL_NOMINAL_S over the mean kernel time seen during it.
The result is in seconds at the speed at which the kernel takes
KERNEL_NOMINAL_S.  Within one 60-s run on the VM above, raw op times of
the examples workload spread 0.30 (interquartile range over median) and
scaled ones 0.05.

The kernel is the benchmark's code, not the package's, so a change to
the package moves the scaled time as it moves the wall time.
"""
from __future__ import annotations

import signal
from fractions import Fraction
from statistics import fmean
from time import perf_counter

PERIOD_S = 0.01
KERNEL_TERMS = 60
# about the kernel's time on the VM above in its faster periods, so scaled
# times read close to the wall times of a quiet machine
KERNEL_NOMINAL_S = 3.5e-4


def kernel() -> Fraction:
    s = Fraction(0)
    for i in range(1, KERNEL_TERMS):
        s += Fraction(i, i + 7) * Fraction(3, i + 1)
    return s


class SpeedMeter:
    """Use as a context manager around the timed part of a run; in it,
    `begin()` and `end(token, elapsed)` bracket each timed interval."""

    def __init__(self):
        self.samples: list[float] = []
        self.busy = 0.0          # seconds spent in the handler so far
        self._inside = False
        self._old = None

    def _sample(self):
        self._inside = True
        t0 = perf_counter()
        kernel()
        dt = perf_counter() - t0
        self._inside = False
        self.samples.append(dt)
        return dt

    def _handler(self, signum, frame):
        if not self._inside:
            self.busy += self._sample()

    def __enter__(self):
        for _ in range(20):     # warm the kernel's code and caches
            kernel()
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def begin(self):
        """Sample the kernel once and mark the start of an interval; call
        right before the interval's clock starts."""
        self._sample()
        return len(self.samples) - 1, self.busy

    def end(self, token, elapsed: float) -> tuple[float, float]:
        """Close the interval `begin` returned `token` for, whose clock read
        `elapsed`; return its time less the handler's, and that time scaled
        to the nominal speed."""
        first, busy0 = token
        net = elapsed - (self.busy - busy0)
        self._sample()
        return net, net * KERNEL_NOMINAL_S / fmean(self.samples[first:])


class WallClock:
    """Stands in for `SpeedMeter` where times are not scaled: the traced
    run, whose spans should not contain the kernel."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def begin(self):
        return None

    def end(self, token, elapsed: float) -> tuple[float, float]:
        return elapsed, elapsed
