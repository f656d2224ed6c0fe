"""The host's speed during a run, from a fixed reference computation.

On a shared machine the speed of the same code drifts by 20-40 % in
phases of seconds to minutes, and CPU time drifts with wall time (the
slowdown is not steal time).  A run's pass times alone therefore measure
the host as much as the program.  While a workload runs, a SIGALRM handler
runs a short fixed computation that does not touch nilflow every
SAMPLE_EVERY_S seconds, and times it.  Its mean time over the run, against
REFERENCE_S, gives the host's speed, and a measured time is scaled by
speed to the time it would have taken on the reference host:

    scaled = measured * REFERENCE_S / mean(sample times)

The handler's own time is kept out of the workload's clock (`clock()`),
and the handler also ends the run at its deadline.
"""

import signal
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

# Mean seconds of one reference_work() on the 2-core x86_64 host where the
# benchmark was defined (Python 3.11, numpy 2.4).  A fixed scale: any
# value gives the same spread and the same comparisons between commits.
REFERENCE_S = 0.004
SAMPLE_EVERY_S = 0.25


class RunLimit(BaseException):
    """The run reached its deadline.  A BaseException, so that no handler
    in the program under test swallows it."""


_MAT = np.array([[2.0, -1.0, 0.5], [0.25, 1.5, -0.75], [1.0, 0.0, 1.25]])


def reference_work():
    """A fixed mix of what nilflow spends its time on: Fraction and
    big-integer arithmetic in pure Python, and small numpy array steps."""
    acc = Fraction(0)
    for i in range(1, 240):
        acc += Fraction(i, i + 7) * Fraction(3 * i + 1, 11)
    n = 1
    for i in range(1, 1600):
        n = (n * (i + 3) + i * i) % (1 << 127)
    a = _MAT.copy()
    for _ in range(240):
        a = a @ _MAT
        a /= np.abs(a).max()
    return acc, n, a


class HostSpeed:
    """Samples reference_work() from a SIGALRM handler while a run is on.
    Only one may be running at a time (it owns SIGALRM)."""

    def __init__(self, deadline, calibrate=True):
        self.deadline = deadline  # a time.perf_counter() value
        self.calibrate = calibrate
        self.samples = []  # seconds of each reference_work()
        self.spent = 0.0  # seconds spent in the handler

    def clock(self):
        """perf_counter() less the time the handler took."""
        return time.perf_counter() - self.spent

    def sample(self):
        t0 = time.perf_counter()
        reference_work()
        self.samples.append(time.perf_counter() - t0)

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        if t0 >= self.deadline:
            raise RunLimit()
        if self.calibrate:
            self.sample()
        self.spent += time.perf_counter() - t0

    @contextmanager
    def running(self):
        """Sample while the body runs; raise RunLimit in it at the
        deadline."""
        old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def scale(self, samples=None):
        """REFERENCE_S over the mean sample: multiply a time measured while
        the samples were taken by this to get it at the reference speed."""
        xs = self.samples if samples is None else samples
        return REFERENCE_S / (sum(xs) / len(xs)) if xs else 1.0
