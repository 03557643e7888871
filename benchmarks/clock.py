"""Wall-clock timing scaled to a reference host speed.

The hosts this benchmark runs on are shared: the same work can take up to
twice as long for stretches of seconds to tens of seconds, so raw wall
times of repeated runs differ by 20-30%. While a :class:`Clock` is entered
it interrupts the program every ``INTERVAL_S`` (SIGALRM) to time a fixed
reference kernel of small-array numpy calls and interpreted float
arithmetic, the kind of work that dominates igtop's per-element loops, but
none of its code. A timed segment's scaled time is its wall time, less the
kernel time inside it, times the mean of ``NOMINAL_S / kernel time`` over
the samples near it: the seconds the segment would have taken at the speed
where the kernel takes ``NOMINAL_S``. A faster program stays faster by the
same factor; a slower host does not show.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array

import numpy as np

NOMINAL_S = 1e-3
INTERVAL_S = 0.05
WINDOW_S = 1.0  # kernel samples within this span around a segment scale it
_DL = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])


def reference_kernel(m, g, o) -> float:
    """Fixed work: small matrix products into the preallocated arrays
    ``m`` (2x2), ``g`` (3x2) and ``o`` (3x3), mixed with interpreted float
    arithmetic.

    It allocates no array data and no object the garbage collector tracks,
    so it moves neither the program's collections nor its peak memory.
    """
    acc = 0.0
    for i in range(200):
        x = 1.0 + 1e-3 * i
        m[0, 0] = x
        np.matmul(_DL, m, out=g)
        np.multiply(g[:, :1], g[:, 1], out=o)
        acc += float(o[1, 2]) + x * x
    return acc


class Clock:
    """Consecutive segments between calls of :meth:`lap`.

    With ``calibrated`` false no kernel runs and scaled times equal wall
    times (traced runs, whose spans must not contain kernel time).
    """

    def __init__(self, calibrated: bool = True):
        self.calibrated = calibrated
        self.marks = []
        # start and seconds of each kernel run; arrays of doubles, so
        # recording a sample allocates no tracked object either
        self._starts = array("d")
        self._kernel = array("d")
        self._scratch = (np.array([[2.0, 0.5], [0.25, 3.0]]), np.zeros((3, 2)),
                         np.zeros((3, 3)))
        self._previous = None

    def __enter__(self):
        if self.calibrated:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.calibrated:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, *_):
        start = time.perf_counter()
        reference_kernel(*self._scratch)
        self._kernel.append(time.perf_counter() - start)
        self._starts.append(start)

    def lap(self) -> None:
        self.marks.append(time.perf_counter())

    def segments(self) -> list:
        """(wall, scaled) seconds of each segment."""
        if self.calibrated and not self._kernel:
            self._sample()  # the segments ended before the first interrupt
        samples = list(zip(self._starts, self._kernel))
        out = []
        for a, b in zip(self.marks, self.marks[1:]):
            wall = b - a - sum(d for t, d in samples if a <= t < b)
            if not self.calibrated:
                out.append((wall, wall))
                continue
            mid, half = (a + b) / 2, max(b - a, WINDOW_S) / 2
            near = [d for t, d in samples if abs(t - mid) <= half]
            speed = statistics.fmean(NOMINAL_S / d
                                     for d in near or self._kernel)
            out.append((wall, wall * speed))
        return out
