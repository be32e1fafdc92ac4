"""Deterministic, named random streams.

Every component draws from its own stream so that adding randomness in one
place never perturbs another — runs are reproducible bit-for-bit from a
single root seed.
"""

from __future__ import annotations

import hashlib
import random


def _derive(seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RngStreams:
    """A factory of independent named random generators."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._py: dict[str, random.Random] = {}

    def py(self, name: str) -> random.Random:
        """A ``random.Random`` stream, created on first use."""
        rng = self._py.get(name)
        if rng is None:
            rng = self._py[name] = random.Random(_derive(self.seed, name))
        return rng
