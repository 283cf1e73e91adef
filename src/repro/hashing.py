"""Hash functions used for sharding and key scattering.

Implemented from scratch to match the libraries the paper's clients used:
MurmurHash64A is Jedis's ring hash, and MD5 (first eight digest bytes)
is its alternative — the paper tried both "with the same result"
(Section 5.1, footnote 7).
"""

from __future__ import annotations

import hashlib
import sys
from array import array
from struct import Struct
from typing import Sequence

__all__ = ["murmur64a", "murmur64a_many", "md5_long"]

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


def _broadcast(value: int, count: int) -> int:
    """``count`` lanes, 128 bits apart, each holding the 64-bit ``value``."""
    return int.from_bytes((value.to_bytes(8, "little") + bytes(8)) * count,
                          "little")


def murmur64a_many(items: Sequence[bytes], seed: int = 0x1234ABCD) -> array:
    """``murmur64a(item, seed)`` of every item, as an ``array('Q')``.

    Items of one width are hashed in one pass: item ``i`` is lane ``i`` of
    one int, lanes 128 bits apart, so each step of the hash is one
    big-int operation over the whole batch.  A lane times a 64-bit
    constant fits its 128 bits, ``& lanes`` is every lane's mod 2**64, and
    a shift right needs one more ``& lanes`` to drop the bits it pulls
    down from the next lane.  The items are joined zero-padded to whole
    8-byte blocks, so block ``j`` of every item is one strided slice of
    the joined words; the results are read back in little-endian order,
    whatever the host's.  A batch of mixed widths is hashed item by item.
    """
    widths = set(map(len, items))
    if len(widths) > 1:
        return array("Q", [murmur64a(item, seed) for item in items])
    if not widths:
        return array("Q")
    (width,) = widths
    count = len(items)
    n_words = -(-width // 8)
    pad = bytes(n_words * 8 - width)
    # Moving 8-byte words about never looks at their values, so the
    # packing is byte-order free; only the decode at the end is not.
    words = array("Q", pad.join(items) + pad)
    column = array("Q", bytes(16 * count))
    m = _M
    lanes = _broadcast(_MASK64, count)
    h = _broadcast((seed ^ (width * m)) & _MASK64, count)
    for word in range(n_words):
        column[::2] = words[word::n_words]
        k = int.from_bytes(column, "little")
        if word < width // 8:
            k = (k * m) & lanes
            k ^= (k >> 47) & lanes
            k = (k * m) & lanes
        h = ((h ^ k) * m) & lanes
    h ^= (h >> 47) & lanes
    h = (h * m) & lanes
    h ^= (h >> 47) & lanes
    out = array("Q", h.to_bytes(16 * count, "little"))
    if sys.byteorder != "little":
        out.byteswap()
    return out[::2]


def md5_long(data: bytes) -> int:
    """The first 8 bytes of an MD5 digest, as Jedis's MD5 option does."""
    digest = hashlib.md5(data).digest()
    return int.from_bytes(digest[:8], "little")
