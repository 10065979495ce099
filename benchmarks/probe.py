"""A speed probe that rescales wall times to a fixed reference speed.

On a shared virtual machine the same code runs up to ~1.4x slower while
a neighbour on the host is busy, in phases that last from seconds to
minutes. :class:`SpeedProbe` samples how fast this process currently runs:
every ``INTERVAL_S`` of wall time a SIGALRM handler times ``kernel``, a
fixed pure-Python loop that touches nothing of the program under test.
``scale`` turns the median sample taken during an interval into the
factor that converts that interval's wall time into reference seconds,
the time it would have taken had the kernel run in ``REFERENCE_S``.

The kernel slows down less than the program does in a slow phase, so the
rescaled time keeps part of the noise; it roughly halves the iteration to
iteration spread. Probe time is added to every interval in the same
proportion (about 1 %).
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.02
REFERENCE_S = 1e-4


def kernel() -> int:
    total = 0
    for i in range(2000):
        total += i * i
    return total


class SpeedProbe:
    """Context manager that samples the kernel's duration while active."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def sample(self, *signal_args) -> None:
        start = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        return False

    def mark(self) -> int:
        return len(self.samples)

    def scale(self, since: int) -> tuple[float, float]:
        """(factor to reference seconds, median kernel seconds) since a mark."""
        median = statistics.median(self.samples[since:] or self.samples)
        return REFERENCE_S / median, median
