"""Deterministic, named random streams.

Every component draws from its own stream so that adding randomness in one
place never perturbs another — runs are reproducible bit-for-bit from a
single root seed.
"""

from __future__ import annotations

import hashlib
import random
from typing import TYPE_CHECKING

if TYPE_CHECKING:   # numpy is ~70 ms of import that only np() callers owe
    import numpy as np


def _derive(seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RngStreams:
    """A factory of independent named random generators."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._py: dict[str, random.Random] = {}
        self._np: dict[str, np.random.Generator] = {}

    def py(self, name: str) -> random.Random:
        """A ``random.Random`` stream, created on first use."""
        rng = self._py.get(name)
        if rng is None:
            rng = self._py[name] = random.Random(_derive(self.seed, name))
        return rng

    def np(self, name: str) -> np.random.Generator:
        """A numpy Generator stream, created on first use."""
        rng = self._np.get(name)
        if rng is None:
            from numpy.random import default_rng
            rng = self._np[name] = default_rng(_derive(self.seed, name))
        return rng
