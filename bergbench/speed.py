"""A speed probe of the host, sampled while a repetition runs.

The shared host this benchmark is meant for changes speed by up to a
factor of two, in phases from seconds to tens of minutes, while CPU
time keeps tracking wall time; a workload's wall time alone then
measures the host as much as the program.  The probe is a fixed piece
of work of about 2-3 ms: numpy calls on a ten-element array, whose time
is Python and numpy dispatch as in the workloads' many small calls, and
two small symmetric eigenvalue problems (LAPACK, as in ``leggauss``).
Of the candidates timed side by side during the workloads (numpy
arithmetic on arrays beyond L2, in place or allocating, larger
eigenvalue problems, a pure-Python loop), this pair followed the host's
slow phases most closely on all four workloads.  While a
repetition runs, an interval timer interrupts it every ``PERIOD_S`` and
times one probe; a repetition's wall time scaled by ``REF_S`` over the
probe's mean time reads as seconds on a host where the probe takes
``REF_S``.

The probe uses only numpy and this file, so no change to the package
can speed it up.
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: seconds between probe samples while a repetition runs
PERIOD_S = 0.2
#: the probe's mean time on an idle host of the baseline's type, so
#: that a scaled time reads as seconds on that host
REF_S = 0.003
#: untimed probes first: the first calls fault in numpy's linear algebra
WARMUP = 3

_ONES = np.ones(10)
_BUF = np.empty(10)
_JACOBI = [
    np.diag(k / np.sqrt(4.0 * k * k - 1.0), 1) + np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1)
    for k in (np.arange(1.0, 24.0), np.arange(1.0, 40.0))
]


def probe():
    """Run the fixed work once; returns its wall time in seconds."""
    start = time.perf_counter()
    for _ in range(3):
        # in place: new arrays, even of ten elements, made the peak
        # resident set of a repetition depend on when the probes fell
        _BUF[...] = _ONES
        for _ in range(300):
            np.multiply(_BUF, 1.0, _BUF)
            np.add(_BUF, _ONES, _BUF)
        for matrix in _JACOBI:
            np.linalg.eigvalsh(matrix)
    return time.perf_counter() - start


class Sampler:
    """Times one probe every ``PERIOD_S`` between ``start`` and ``stop``."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def _handler(self, signum, frame):
        self.samples.append(probe())

    def start(self):
        for _ in range(WARMUP):
            probe()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def probed_s(self):
        """Seconds spent in probes; the caller subtracts them from its time."""
        return sum(self.samples)

    def mean_s(self):
        return sum(self.samples) / len(self.samples)


def sample_now(count):
    """Mean of ``count`` probes run back to back, after the warm-up."""
    for _ in range(WARMUP):
        probe()
    return sum(probe() for _ in range(count)) / count
