"""Bloom filters.

Every SSTable/HFile carries a Bloom filter so point reads can skip runs
that cannot contain the key — the mechanism that keeps LSM read
amplification bounded and that the ``bench_ablation_bloom`` experiment
switches off.
"""

from __future__ import annotations

import math
from hashlib import blake2b
from struct import Struct
from typing import Iterable

__all__ = ["BloomFilter"]

_DIGEST_HALVES = Struct(">QQ").unpack


class BloomFilter:
    """A classic k-hash Bloom filter over a bit array."""

    def __init__(self, expected_items: int, false_positive_rate: float = 0.01):
        if expected_items < 1:
            expected_items = 1
        if not 0.0 < false_positive_rate < 1.0:
            raise ValueError("false_positive_rate must be in (0, 1)")
        self.expected_items = expected_items
        self.false_positive_rate = false_positive_rate
        ln2 = math.log(2)
        self.n_bits = max(
            8, int(-expected_items * math.log(false_positive_rate) / (ln2 * ln2))
        )
        self.n_hashes = max(1, round((self.n_bits / expected_items) * ln2))
        self._bits = bytearray((self.n_bits + 7) // 8)
        self.n_items = 0

    @property
    def size_bytes(self) -> int:
        """On-disk footprint of the filter."""
        return len(self._bits)

    def _first_and_step(self, key: str) -> tuple[int, int]:
        # Kirsch–Mitzenmacher double hashing from one 16-byte digest:
        # position i is (h1 + i * h2) mod n_bits, walked here as a start
        # and a step already reduced mod n_bits.
        h1, h2 = _DIGEST_HALVES(
            blake2b(key.encode("utf-8"), digest_size=16).digest())
        return h1 % self.n_bits, (h2 | 1) % self.n_bits

    def add(self, key: str) -> None:
        """Insert ``key`` into the filter (a run's keys go in as one
        :meth:`add_all` batch, whose fixed cost grows with the filter)."""
        self.add_all((key,))

    def add_all(self, keys: Iterable[str]) -> None:
        """Insert every key of ``keys``: the bits one ``add`` each sets.

        A key's positions, taken without the wrap-around, are an
        arithmetic progression below ``n_hashes * n_bits``, so each key
        marks them with one strided slice store into a scratch array of
        a byte per unwrapped position; the scratch is folded onto the
        filter once per batch, ``n_bits`` at a time.
        """
        n_bits, n_hashes = self.n_bits, self.n_hashes
        marks = b"1" * n_hashes
        scratch = bytearray(b"0") * (n_bits * n_hashes)
        added = 0
        for key in keys:
            h1, h2 = _DIGEST_HALVES(
                blake2b(key.encode("utf-8"), digest_size=16).digest())
            pos = h1 % n_bits
            step = (h2 | 1) % n_bits
            if step:
                scratch[pos:pos + n_hashes * step:step] = marks
            else:  # every probe lands on the first position
                scratch[pos] = marks[0]
            added += 1
        # Bit ``pos`` is bit ``pos & 7`` of byte ``pos >> 3``: the array
        # read as one little-endian integer has bit ``pos`` set.
        folded = int.from_bytes(self._bits, "little")
        for start in range(0, len(scratch), n_bits):
            wrapped = scratch[start:start + n_bits]
            wrapped.reverse()
            folded |= int(wrapped, 2)
        self._bits[:] = folded.to_bytes(len(self._bits), "little")
        self.n_items += added

    def might_contain(self, key: str) -> bool:
        """``False`` means definitely absent; ``True`` means probably present."""
        pos, step = self._first_and_step(key)
        bits, n_bits = self._bits, self.n_bits
        for __ in range(self.n_hashes):
            if not bits[pos >> 3] & (1 << (pos & 7)):
                return False
            pos += step
            if pos >= n_bits:
                pos -= n_bits
        return True
