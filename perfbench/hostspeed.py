"""Host speed, from a fixed reference kernel timed during the operations.

On a shared host the speed of a core drifts with the load of other
tenants: on the 2-core sandbox the same d=4 solve_all takes 0.6 s in one
minute and 1.2 s a few minutes later, and ten runs of an unchanged
program spread by 20 to 30% around their median.  That drift slows the
program and any other code on the core alike, so the benchmark times a
kernel that is not part of the program -- the mix the program runs:
small dense solves, polynomial evaluation, a Python float loop and
whole-array NumPy arithmetic.  The kernel runs a few times before every
operation and, from a SIGALRM handler, every PERIOD_S seconds while the
operation runs; the handler's time is taken out of the operation's time.
An operation's time is then scaled by

    NOMINAL_S / (median kernel time during the operation)

which gives seconds at the host speed where the kernel takes NOMINAL_S,
between its times on a quiet and on a busy sandbox core (4 to 8 ms).  An
operation too short for MIN_SAMPLES samples uses those within WINDOW_S
seconds of it.  The speed changes from second to second, so a scaled
operation time still varies by 6 to 10% between repeats, against 25 to
30% unscaled; medians over a few seconds of operations vary by 2 to 4%.
The program never runs the kernel, so a faster or slower program moves
the scaled times as it moves the raw ones.  Raw seconds and the scale
factors stay in the run's report.
"""

import signal
import statistics
import time

import numpy as np

NOMINAL_S = 0.006   # kernel seconds at the reference host speed
SAMPLES = 2         # kernel runs before each operation
PERIOD_S = 0.2      # seconds between kernel runs during an operation
MIN_SAMPLES = 3
WINDOW_S = 2.0      # seconds either side of a short operation

_A = np.vander(np.linspace(-1.0, 1.0, 8), increasing=True) + np.eye(8)
_B = np.linspace(1.0, 2.0, 8)
_X = np.linspace(0.5, 2.0, 20000)


def kernel():
    s = 0.0
    for i in range(300):
        x = np.linalg.solve(_A, _B)
        s += float(np.polyval(x, 0.3 + 1e-4 * i))
        for j in range(25):
            s += j * 1e-3
    for _ in range(20):
        s += float(np.sum(_X * _X - 1.0 / _X))
    return s


class HostClock:
    """Kernel samples (start, seconds) and the scale factors they give."""

    def __init__(self):
        self.samples = []

    def _sample(self):
        start = time.perf_counter()
        kernel()
        seconds = time.perf_counter() - start
        self.samples.append((start, seconds))
        return seconds

    def sample(self, n=SAMPLES):
        for _ in range(n):
            self._sample()

    def _on_alarm(self, signum, frame):
        self._sample()

    def time(self, fn, *args):
        """(start, end, seconds, result) of fn(*args), sampling while it
        runs; the seconds leave out the samples' own time."""
        self.sample()
        first = len(self.samples)
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            end = time.perf_counter()
            signal.signal(signal.SIGALRM, previous)
        # A handler runs to its end before the main thread goes on, so a
        # sample that started before `end` lies inside [start, end].
        stolen = sum(s for t, s in self.samples[first:] if t < end)
        return start, end, end - start - stolen, result

    def factor(self, start, end):
        """NOMINAL_S over the median kernel time during [start, end]."""
        near = [s for t, s in self.samples if start <= t <= end]
        if len(near) < MIN_SAMPLES:
            near = [s for t, s in self.samples
                    if start - WINDOW_S <= t <= end + WINDOW_S]
        return NOMINAL_S / statistics.median(near)
