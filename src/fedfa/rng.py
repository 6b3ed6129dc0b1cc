"""Deterministic RNG streams.

Every stochastic component draws from its own generator, keyed by a tuple of
integers (master seed plus purpose-specific keys). Streams are independent of
execution order, so e.g. disabling augmentation never shifts the draws seen
by data shuffling or weight init.
"""

from __future__ import annotations

import numpy as np

# stable small integers for stream purposes; never reorder
_PURPOSES = {
    "init": 1,
    "data": 2,
    "shuffle": 3,
    "select": 4,
    "ffa": 5,
    "mixup": 6,
    "noise": 7,
    "bootstrap": 8,
}


def stream(seed: int, purpose: str, *keys: int) -> np.random.Generator:
    """Generator for (seed, purpose, *keys), reproducible across runs."""
    entropy = (int(seed), _PURPOSES[purpose], *[int(k) for k in keys])
    return np.random.default_rng(np.random.SeedSequence(entropy))
