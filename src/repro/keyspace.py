"""The benchmark key space.

YCSB derives record keys by hashing a sequential record number and
prefixing it with ``user``; the resulting keys are uniformly distributed
both in hash space and — because the hash is rendered zero-padded — in
lexicographic order.  This module pins down that format so that:

* range-partitioned stores (HBase regions) can split the key space into
  equal lexicographic slices,
* cost models (MySQL's un-LIMITed tail scans) can price "all rows with a
  key >= start" without materialising them,
* workload generators and stores agree on key width (the paper's keys
  are 25 bytes; Section 3).
"""

from __future__ import annotations

from array import array

from repro.hashing import murmur64a, murmur64a_many

__all__ = ["KEY_PREFIX", "KEY_DIGITS", "KEY_LENGTH", "scatter_hash",
           "scatter_hashes", "render_key", "format_key", "lex_position"]

KEY_PREFIX = "user"
#: Digits after the prefix: 25-byte keys, as specified in Section 3.
KEY_DIGITS = 21
KEY_LENGTH = len(KEY_PREFIX) + KEY_DIGITS
#: Keys encode a 64-bit hash left-padded to KEY_DIGITS decimal digits,
#: so the numeric and lexicographic orders coincide.
_HASH_SPACE = 2**64
_PREFIX_LENGTH = len(KEY_PREFIX)
#: The largest float below 1.0: where a (malformed) key past the hash
#: space is clamped to.
_BELOW_ONE = 1.0 - 2**-53


def scatter_hash(record_number: int) -> int:
    """The 64-bit hash that scatters ``record_number`` over the key space.

    Its decimal rendering is the record's key; the record generator
    draws the record's field values from its bytes as well.
    """
    return murmur64a(record_number.to_bytes(8, "big"))


def scatter_hashes(record_numbers: range) -> array:
    """``scatter_hash`` of every record number, in one batched hash."""
    return murmur64a_many([number.to_bytes(8, "big")
                           for number in record_numbers])


def render_key(scattered: int) -> str:
    """The 25-byte key whose digits are the scatter hash ``scattered``."""
    return KEY_PREFIX + str(scattered).zfill(KEY_DIGITS)


def format_key(record_number: int) -> str:
    """The 25-byte key for ``record_number`` (FNV-style scattering).

    Sequential record numbers map to uniformly scattered keys, exactly
    like YCSB's hashed key chooser.
    """
    return render_key(scatter_hash(record_number))


def lex_position(key: str) -> float:
    """Lexicographic position of ``key`` within the key space, in [0, 1).

    Exact for well-formed benchmark keys; arbitrary strings fall back to
    a hash-based position (still uniform over random keys).
    """
    digits = key[_PREFIX_LENGTH:]
    if key.startswith(KEY_PREFIX) and digits.isdigit():
        position = int(digits) / _HASH_SPACE
        return position if position < _BELOW_ONE else _BELOW_ONE
    return murmur64a(key.encode("utf-8"), seed=0x51CA7) / 2**64
