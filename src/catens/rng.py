"""Seedable, splittable random streams.

Every stochastic routine in the package derives its randomness from a
``numpy`` generator obtained through :func:`substream`, keyed by an integer
seed plus an arbitrary tuple of non-negative integers (replicate index,
ensemble member, column, ...).  Substreams are statistically independent and
do not depend on the order in which they are created, so parallel execution
over replicates or ensemble members is reproducible for any scheduling.
"""

from __future__ import annotations

import numpy as np


def seed_sequence(seed: int, *key: int) -> np.random.SeedSequence:
    """SeedSequence for the substream identified by ``(seed, *key)``."""
    return np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the substream identified by ``(seed, *key)``; every
    random draw in the package starts here, from an integer seed."""
    return np.random.default_rng(seed_sequence(seed, *key))


def child_seed(seed: int, *key: int) -> int:
    """Derived integer seed for the substream ``(seed, *key)``.

    Useful when a component only accepts a plain seed but must stay
    independent across replicates or ensemble members.
    """
    return int(seed_sequence(seed, *key).generate_state(1, dtype=np.uint64)[0])
