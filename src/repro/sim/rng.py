"""Deterministic random-number streams.

Every stochastic component (workload generator, cache-model jitter,
service-time noise) draws from its own named stream derived from a single
experiment seed, so that any figure can be regenerated bit-for-bit while
streams stay statistically independent of each other.
"""

from __future__ import annotations

import hashlib
import random

__all__ = ["RngRegistry"]


class RngRegistry:
    """A factory of named, reproducibly-seeded ``random.Random`` streams."""

    def __init__(self, seed: int = 42):
        self.seed = seed
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it deterministically."""
        if name not in self._streams:
            digest = hashlib.sha256(
                f"{self.seed}:{name}".encode("utf-8")
            ).digest()
            self._streams[name] = random.Random(
                int.from_bytes(digest[:8], "big")
            )
        return self._streams[name]
