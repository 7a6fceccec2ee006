"""Seeded randomness helpers for reproducible simulations.

Every stochastic element (channel jitter, loss, workload generation) draws
from a :class:`SeededStream` derived from a root seed plus a string path,
so adding a new random consumer never perturbs the draws of existing ones.
"""

from __future__ import annotations

import hashlib
import random


def derive_seed(root_seed: int, path: str) -> int:
    """Derive a 64-bit child seed from a root seed and a path string."""
    digest = hashlib.sha256(f"{root_seed}:{path}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class SeededStream:
    """An isolated random stream bound to one consumer.

    Thin wrapper over :class:`random.Random` with the distributions the
    simulation layers need (jitter, Bernoulli draws, uniform integers).
    """

    def __init__(self, root_seed: int, path: str) -> None:
        self.path = path
        self._rng = random.Random(derive_seed(root_seed, path))

    def jitter(self, base: int, spread: int) -> int:
        """``base`` +/- uniform(0, spread) microseconds, never negative."""
        if spread <= 0:
            return max(0, base)
        return max(0, base + self._rng.randint(-spread, spread))

    def chance(self, probability: float) -> bool:
        """Bernoulli draw; probability is clamped to [0, 1]."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self._rng.random() < probability

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high]."""
        return self._rng.randint(low, high)


class StreamFactory:
    """Creates :class:`SeededStream` children from one root seed."""

    def __init__(self, root_seed: int = 0) -> None:
        self.root_seed = root_seed
        self._issued: dict[str, SeededStream] = {}

    def stream(self, path: str) -> SeededStream:
        """The stream for ``path`` (one instance per path, cached)."""
        existing = self._issued.get(path)
        if existing is None:
            existing = SeededStream(self.root_seed, path)
            self._issued[path] = existing
        return existing


__all__ = ["derive_seed", "SeededStream", "StreamFactory"]
