"""Rescale wall times to a fixed CPU speed.

The benchmark's host is shared: other tenants slow this CPU by up to ~1.8x
for seconds to minutes at a time, which moves raw wall times by more than any
useful regression bound. A fixed pure-Python loop is timed before and after
each timed step and, through an interval timer, every 0.2 s during it. The
step's wall time, less the time spent in those samples, is multiplied by
REFERENCE_S / (mean sample time). The result reads as seconds at the speed
the loop reaches on an idle core of the baseline machine.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

REFERENCE_LOOPS = 40_000
# The loop's fastest time (about the 1st percentile of 3,000 samples) on the
# baseline machine: a 2-core KVM guest on an Intel Xeon, Python 3.11.7.
REFERENCE_S = 0.003
INTERVAL_S = 0.2
SAMPLES_AROUND = 5


def reference_seconds() -> float:
    """Time the fixed reference loop once."""
    start = time.perf_counter()
    acc = 0
    for j in range(REFERENCE_LOOPS):
        acc += (j * j) % 7
    return time.perf_counter() - start


class CpuSpeed:
    """Samples of the reference loop around and during one timed step."""

    def __init__(self):
        self.samples: list = []
        self.inside = 0.0      # seconds spent sampling inside the step

    def begin(self):
        self.samples = [reference_seconds() for _ in range(SAMPLES_AROUND)]
        self.inside = 0.0

    def _tick(self, _signum, _frame):
        t = reference_seconds()
        self.samples.append(t)
        self.inside += t

    @contextlib.contextmanager
    def sampling(self):
        """Sample every INTERVAL_S while the block runs (main thread only)."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def end(self, wall: float) -> tuple:
        """Returns (wall time less sampling, that time at reference speed)."""
        self.samples.extend(reference_seconds() for _ in range(SAMPLES_AROUND))
        own = wall - self.inside
        return own, own * REFERENCE_S / statistics.mean(self.samples)
