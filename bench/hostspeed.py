"""The shared host's speed, read from a fixed reference kernel.

The benchmark runs on a few cores of a host shared with other tenants.
There the speed of all code alike changes by up to a third, in spells of
seconds to minutes, so raw times of identical runs spread more than the
changes they are meant to show.  A fixed kernel of the benchmark's own
(a pure-Python loop and a few small LAPACK calls, the two kinds of work
the package does) is timed now and then while a workload runs.  The run's
times are scaled by ``NOMINAL_S`` over the trimmed mean kernel time: they
read as seconds on this host running at its reference speed.  The kernel is no
code of the package, so a change to the package does not move the scale.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# the kernel's median time on the reference host (see README.md)
NOMINAL_S = 0.006
SAMPLE_EVERY_S = 0.1

_MAT = np.random.default_rng(0).standard_normal((64, 64))


def kernel() -> None:
    acc = 0
    for i in range(20_000):
        acc += i * i
    for _ in range(5):
        np.linalg.svd(_MAT)


class Sampler:
    """Kernel times taken at most every ``SAMPLE_EVERY_S`` seconds, and the
    seconds spent taking them, so the timed regions can leave them out."""

    def __init__(self):
        kernel()  # warm-up: LAPACK's first call
        self.samples = []
        self.spent = 0.0
        self._last = float("-inf")

    def sample(self) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.spent += end - start
        self._last = end

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def scale(self) -> float:
        """NOMINAL_S over the mean kernel time, leaving out the slowest and
        the fastest tenth of the samples (a sample that a context switch
        lands on takes twice as long): below 1 on a slow spell."""
        xs = sorted(self.samples)
        cut = len(xs) // 10
        return NOMINAL_S / statistics.fmean(xs[cut:len(xs) - cut])
