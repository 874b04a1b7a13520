"""Seeded random number generation and the Monte Carlo mean.

All randomness in the package flows through Philox, a counter-based 64-bit
generator.  An experiment seeds each (grid point, trial) cell on its own:
its seed is the first 8 bytes (little-endian) of the SHA-256 of
``"root:index:trial"`` (``harness._cell_seed``).  The one rule from a seed
to an instance, shared by sweep cells and ``recover``/``phaselift``, is
``harness.solve_instance``: its ``generator`` draws the signal, then the
operator seed, then the noise seed.  So cells replay in any order.
Gaussian variates use numpy's ziggurat sampler.

One draw of n rows continues a Philox stream exactly as n draws of one
row, so every mean-of-trials estimator goes through ``mc_mean``: it draws
the trials in ``chunks``, whose size bounds memory and moves no draw.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

CHUNK_ITEMS = 256       # trials (or sample rows) per chunk
CHUNK_VALUES = 1 << 17  # float64 values drawn per chunk: 1 MiB


def generator(seed: int) -> np.random.Generator:
    """Return a Philox generator keyed deterministically by ``seed``."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def spawn_generators(seed: int, n: int) -> list[np.random.Generator]:
    """Return ``n`` independent Philox generators derived from ``seed``.

    The streams are stable: the k-th child is the same across runs and
    does not depend on how many siblings are consumed.
    """
    children = np.random.SeedSequence(seed).spawn(n)
    return [np.random.Generator(np.random.Philox(c)) for c in children]


def chunks(total: int, values_each: int) -> list[tuple[int, int]]:
    """Consecutive (start, stop) blocks covering range(total), each of at
    most CHUNK_ITEMS items and, when an item holds ``values_each`` values,
    at most CHUNK_VALUES values (but at least one item)."""
    size = max(1, min(CHUNK_ITEMS, CHUNK_VALUES // max(values_each, 1)))
    return [(start, min(start + size, total)) for start in range(0, total, size)]


def mc_mean(trials: int, values_each: int,
            sample: Callable[[int], np.ndarray]) -> tuple[float, float]:
    """Mean and standard error (0.0 at one trial) of ``trials`` values, n at
    a time from ``sample(n)`` over ``chunks(trials, values_each)``."""
    if trials < 1:
        raise ValueError("need at least one trial")
    vals = np.empty(trials)
    for start, stop in chunks(trials, values_each):
        vals[start:stop] = sample(stop - start)
    se = float(np.std(vals, ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return float(np.mean(vals)), se
