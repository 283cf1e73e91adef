"""Hash functions used for sharding and key scattering.

Implemented from scratch to match the libraries the paper's clients used:
MurmurHash64A is Jedis's ring hash, and MD5 (first eight digest bytes)
is its alternative — the paper tried both "with the same result"
(Section 5.1, footnote 7).
"""

from __future__ import annotations

import hashlib
from struct import Struct

__all__ = ["murmur64a", "md5_long"]

_MASK64 = (1 << 64) - 1
_M = 0xC6A4A7935BD1E995

_KEY_BLOCKS = Struct("<QQQB").unpack


def murmur64a(data: bytes, seed: int = 0x1234ABCD) -> int:
    """MurmurHash64A — the hash Jedis uses for its shard ring.

    The per-record path hashes two shapes only, a 25-byte key (routing)
    and an 8-byte record number (``format_key``), so each has its rounds
    written out: one unpack, no slicing, and a block's second product
    left unmasked where only its low 64 bits can reach the result.  The
    kernel is chosen by ``len(data)`` alone; the block loop under them
    serves every other length and is the oracle the tests hold them to.
    """
    m = _M
    mask = _MASK64
    n = len(data)
    if n == 25:
        k1, k2, k3, tail = _KEY_BLOCKS(data)
        h = seed ^ (25 * m)
        k1 = (k1 * m) & mask
        k1 ^= k1 >> 47
        h = ((h ^ (k1 * m)) * m) & mask
        k2 = (k2 * m) & mask
        k2 ^= k2 >> 47
        h = ((h ^ (k2 * m)) * m) & mask
        k3 = (k3 * m) & mask
        k3 ^= k3 >> 47
        h = (((h ^ (k3 * m)) * m ^ tail) * m) & mask
    elif n == 8:
        k = (int.from_bytes(data, "little") * m) & mask
        k ^= k >> 47
        h = ((seed ^ (8 * m) ^ (k * m)) * m) & mask
    else:
        h = (seed ^ (n * m)) & mask
        n_blocks = n // 8
        for i in range(n_blocks):
            k = int.from_bytes(data[i * 8:(i + 1) * 8], "little")
            k = (k * m) & mask
            k ^= k >> 47
            k = (k * m) & mask
            h ^= k
            h = (h * m) & mask
        tail = data[n_blocks * 8:]
        if tail:
            h ^= int.from_bytes(tail, "little")
            h = (h * m) & mask
    h ^= h >> 47
    h = (h * m) & mask
    h ^= h >> 47
    return h


def md5_long(data: bytes) -> int:
    """The first 8 bytes of an MD5 digest, as Jedis's MD5 option does."""
    digest = hashlib.md5(data).digest()
    return int.from_bytes(digest[:8], "little")
