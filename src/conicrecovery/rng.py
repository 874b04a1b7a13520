"""Seeded random number generation.

All randomness in the package flows through Philox, a counter-based 64-bit
generator.  Experiments derive independent per-trial streams by spawning
from a single root ``SeedSequence``, so trial-level parallelism cannot
perturb determinism.  Gaussian variates use numpy's ziggurat sampler.

One draw of n rows continues a Philox stream exactly as n draws of one
row, so estimators draw and evaluate their trials in ``chunks``: the chunk
size bounds memory and moves no estimate.
"""

from __future__ import annotations

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
    size = max(1, min(CHUNK_ITEMS, CHUNK_VALUES // values_each))
    return [(start, min(start + size, total)) for start in range(0, total, size)]
