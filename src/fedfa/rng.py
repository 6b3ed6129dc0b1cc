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
    words = (int(seed), _PURPOSES[purpose], *[int(k) for k in keys])
    # SeedSequence coerces a tuple int by int into uint32 words; when every
    # int is one word, handing it those words directly gives the same state
    # in about half the time. Other ints (negative ones are rejected) keep
    # the tuple form.
    if min(words) >= 0 and max(words) <= 0xFFFF_FFFF:
        entropy = np.array(words, dtype=np.uint32)
    else:
        entropy = words
    return np.random.default_rng(np.random.SeedSequence(entropy))
