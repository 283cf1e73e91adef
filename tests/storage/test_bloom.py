"""Unit and property tests for Bloom filters."""

from hashlib import blake2b

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.bloom import BloomFilter


class TestBloomFilter:
    def test_no_false_negatives(self):
        bloom = BloomFilter(1000, 0.01)
        keys = [f"key-{i}" for i in range(1000)]
        for key in keys:
            bloom.add(key)
        assert all(bloom.might_contain(key) for key in keys)

    def test_false_positive_rate_near_target(self):
        bloom = BloomFilter(2000, 0.01)
        for i in range(2000):
            bloom.add(f"member-{i}")
        false_positives = sum(
            bloom.might_contain(f"nonmember-{i}") for i in range(10_000)
        )
        assert false_positives / 10_000 < 0.03  # 3x headroom over target

    def test_bit_positions_are_kirsch_mitzenmacher(self):
        # The reference form of the walk add()/might_contain() inline.
        bloom = BloomFilter(300, 0.02)
        expected = bytearray(len(bloom._bits))
        for i in range(300):
            key = f"user{i:021d}"
            bloom.add(key)
            digest = blake2b(key.encode("utf-8"), digest_size=16).digest()
            h1 = int.from_bytes(digest[:8], "big")
            h2 = int.from_bytes(digest[8:], "big") | 1
            for j in range(bloom.n_hashes):
                pos = (h1 + j * h2) % bloom.n_bits
                expected[pos >> 3] |= 1 << (pos & 7)
        assert bloom._bits == expected

    def test_empty_filter_rejects(self):
        bloom = BloomFilter(100)
        assert not bloom.might_contain("anything")

    def test_size_scales_with_expectation(self):
        small = BloomFilter(100, 0.01)
        large = BloomFilter(10_000, 0.01)
        assert large.size_bytes > small.size_bytes
        # ~9.6 bits per key at 1% FP
        assert large.size_bytes * 8 / 10_000 == pytest.approx(9.6, rel=0.05)

    def test_invalid_fp_rate(self):
        with pytest.raises(ValueError):
            BloomFilter(100, 1.5)

    def test_zero_items_clamped(self):
        bloom = BloomFilter(0)
        bloom.add("x")
        assert bloom.might_contain("x")


@settings(max_examples=50, deadline=None)
@given(st.sets(st.text(min_size=1, max_size=30), min_size=1, max_size=200))
def test_property_members_always_found(keys):
    bloom = BloomFilter(len(keys), 0.01)
    for key in keys:
        bloom.add(key)
    assert all(bloom.might_contain(key) for key in keys)
