"""Known answers and a reference loop for ``murmur64a`` and its batch.

Every key (``format_key``), shard, token owner, partition and Voldemort
leaf-fault draw in every golden is a value of this one function, so it
is pinned twice over: by known-answer vectors taken from the generic
block loop as it stood before any fixed-width kernel existed, and by
that loop itself, kept here as the reference implementation (the method
of ``tests/sim/test_join_in_place.py``) that whatever ``repro.hashing``
does today must agree with on every length and seed.  The batched
``murmur64a_many`` is held to the same loop, item by item.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing import murmur64a, murmur64a_many
from repro.keyspace import format_key

_MASK64 = (1 << 64) - 1


def reference_murmur64a(data: bytes, seed: int = 0x1234ABCD) -> int:
    """The generic MurmurHash64A loop: one 8-byte block at a time."""
    m = 0xC6A4A7935BD1E995
    r = 47
    h = (seed ^ (len(data) * m)) & _MASK64
    n_blocks = len(data) // 8
    for i in range(n_blocks):
        k = int.from_bytes(data[i * 8:(i + 1) * 8], "little")
        k = (k * m) & _MASK64
        k ^= k >> r
        k = (k * m) & _MASK64
        h ^= k
        h = (h * m) & _MASK64
    tail = data[n_blocks * 8:]
    if tail:
        h ^= int.from_bytes(tail, "little")
        h = (h * m) & _MASK64
    h ^= h >> r
    h = (h * m) & _MASK64
    h ^= h >> r
    return h


def _vector_input(length: int) -> bytes:
    return bytes((i * 37 + 11) & 0xFF for i in range(length))


#: ``seed -> murmur64a(_vector_input(n), seed) for n in 0..33``, for the
#: three seeds ``src/`` uses: the default (keys, rings, tokens,
#: partitions), ``lex_position``'s fallback and Voldemort's leaf-fault
#: draw.  Lengths 0-33 cover every tail length after 0 to 4 blocks, and
#: the two shapes the per-record path hashes (8 and 25 bytes).
KNOWN_ANSWERS = {
    0x1234ABCD: (
        0x742D0865AA627B0B, 0xFD029F909C03E7CD, 0x06FEEBB1B83A07F1,
        0x35CD86219F792DE9, 0xC907C8C3D72F675B, 0xD2B8695F2A79B029,
        0xFBB04D910187B796, 0x75C3E2234E935C33, 0x209A2E4240E9FE3B,
        0xFFAD0D0E547C24E3, 0xAFE7EF78B0E2D568, 0x1F48D631D0E8E7B9,
        0xAB7199AB57F2A47E, 0xB4B6143B6DE34922, 0xA203B6B44114D276,
        0x699CD3A6DC337C94, 0x94321E96C1195385, 0xC54E7BB22ED48C7A,
        0xAE1ABA26BAE41DB5, 0xA8799432A4EC166B, 0xE1792786188F7DDC,
        0x769B90415530DC0B, 0xA1347A97F4305804, 0x654E3CF64B297D05,
        0x6434750CE7D3A8FD, 0x50FF7A0227EBEE2C, 0xAFC9ED2CC5230E78,
        0x4D8DBE1DDD8656C6, 0x6ECC17ADF2436933, 0x3663F715788FC053,
        0xD795D544DB213F7A, 0xB73F1D2135C6A4E2, 0xA954DB28701AB155,
        0x3B673A3338F49000,
    ),
    0x51CA7: (
        0xDD9E3A456B65170F, 0x47638729F4ACCDFA, 0x6C02E66AEE08D26A,
        0x8DB520EAEE184D0D, 0x89BB0DF192C187A6, 0x1D3707D22501E413,
        0x3DE1D2AA851E1D45, 0x9B0BA9EA701A4769, 0x32803B6CCFD10419,
        0x9C7614156645994A, 0x1AFCF490A59A74E4, 0x7EBA15F432AA3394,
        0x1BF906C2700F4698, 0xAD088789EA2B53F3, 0xE03D42F1211CCFF8,
        0x2A8CA6582C599EA7, 0x9AD5FFCB8109BA92, 0xC4A3E763724C0E64,
        0x593F34FB49FBEDA7, 0x018AFE69CD45A9E8, 0x08B9CCB526EA9884,
        0xA758A3F2EC39D3CD, 0x1F7B36BC54521D0E, 0x26360F5037DD8646,
        0x502333C4734ABB93, 0xF2D7B75EA90478B0, 0x0CF439FC803FC5FD,
        0xD947BD8D6BE1E421, 0xEDF46F91E18EC13E, 0x12D1B1125EEA5FE2,
        0xC6B0D32DDA5D9840, 0x6CDBDF0DA522F75A, 0xA52E6CB252800651,
        0x9795CDF365E33036,
    ),
    0xFA17: (
        0xA470F5E83DF63682, 0x17AFEE4F982A0D0B, 0x4A26E953186FAC0C,
        0xF8E5672EFCB50C38, 0x5C3BC762B25A6CED, 0xCACA68845350000E,
        0x07A06E95ACC4197C, 0xAAD8E228470FD52E, 0x3F5641E37EE617EB,
        0xB5508E0A575255D5, 0xFCB33F247A638398, 0x69D6CE14EC938A06,
        0x94A1037A8F174063, 0x8D875C140A829941, 0x7656310A3466CD5F,
        0x7132632850B2DFB7, 0xDAAC649D7BF09A82, 0x2E6ADF9D7F451860,
        0x5E251FF4B8B0CA53, 0xF10E4C1076C7BE87, 0x37F9B7B19FE1E214,
        0xE9245B2209D80BBD, 0x65ED4F7E0C00655B, 0x341BDA9215D5026E,
        0xA450B6D20FE7BA0C, 0x8DADEB984B27FDAC, 0x36182718ABD6A0B4,
        0x4DEE569FBCA888CD, 0xAFB076FC44D018A6, 0x3540187D3C045ED7,
        0x9B39CEDEDC20687C, 0xBFF6865A8B9A1672, 0xD51C06EEF52C3D11,
        0x59662D05CAC2377C,
    ),
}

KNOWN_KEYS = {
    0: "user015659975442190377284",
    1: "user002308726568914317663",
    2**31: "user015149450875901852967",
    2**63: "user002209778508801979614",
}


class TestKnownAnswers:
    @pytest.mark.parametrize("seed", sorted(KNOWN_ANSWERS))
    def test_lengths_0_to_33(self, seed):
        observed = tuple(murmur64a(_vector_input(n), seed)
                         for n in range(34))
        assert observed == KNOWN_ANSWERS[seed]

    def test_default_seed_is_the_jedis_one(self):
        assert tuple(murmur64a(_vector_input(n)) for n in range(34)) == (
            KNOWN_ANSWERS[0x1234ABCD])

    def test_the_reference_loop_gives_the_known_answers(self):
        # The referee below is only as good as this: the copy kept here
        # is the loop the vectors were taken from.
        for seed, answers in KNOWN_ANSWERS.items():
            assert tuple(reference_murmur64a(_vector_input(n), seed)
                         for n in range(34)) == answers

    @pytest.mark.parametrize("record_number", sorted(KNOWN_KEYS))
    def test_format_key(self, record_number):
        assert format_key(record_number) == KNOWN_KEYS[record_number]

    def test_other_byte_types_hash_like_bytes(self):
        data = _vector_input(25)
        assert murmur64a(bytearray(data)) == murmur64a(data)
        assert murmur64a(memoryview(data)) == murmur64a(data)


class TestAgainstTheReferenceLoop:
    @settings(max_examples=400, deadline=None)
    @given(data=st.binary(min_size=0, max_size=64),
           seed=st.integers(min_value=-2**70, max_value=2**70))
    def test_any_length_any_seed(self, data, seed):
        assert murmur64a(data, seed) == reference_murmur64a(data, seed)

    @settings(max_examples=300, deadline=None)
    @given(data=st.one_of(st.binary(min_size=8, max_size=8),
                          st.binary(min_size=25, max_size=25)),
           seed=st.sampled_from(sorted(KNOWN_ANSWERS)))
    def test_the_two_per_record_shapes(self, data, seed):
        assert murmur64a(data, seed) == reference_murmur64a(data, seed)

    @settings(max_examples=300, deadline=None)
    @given(record_number=st.integers(min_value=0, max_value=2**64 - 1))
    def test_format_key_scatters_through_the_same_hash(self, record_number):
        scattered = reference_murmur64a(record_number.to_bytes(8, "big"))
        assert format_key(record_number) == f"user{scattered:021d}"

    @pytest.mark.parametrize("record_number", [-1, 2**64])
    def test_format_key_rejects_what_eight_bytes_cannot_hold(
            self, record_number):
        with pytest.raises(OverflowError):
            format_key(record_number)


def _reference_many(items, seed):
    return [reference_murmur64a(item, seed) for item in items]


class TestBatchAgainstTheReferenceLoop:
    """``murmur64a_many`` packs a batch of equal widths into one int; a
    lane that carried into its neighbour, a shift that leaked bits across
    lanes or a decode in the host's byte order shows as a wrong item."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), width=st.integers(min_value=0, max_value=40),
           seed=st.sampled_from(sorted(KNOWN_ANSWERS)))
    def test_uniform_widths_the_seeds_src_uses(self, data, width, seed):
        items = data.draw(st.lists(
            st.binary(min_size=width, max_size=width), max_size=600))
        assert list(murmur64a_many(items, seed)) == _reference_many(
            items, seed)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), width=st.integers(min_value=0, max_value=40),
           seed=st.integers(min_value=0, max_value=2**64 - 1))
    def test_uniform_widths_any_64_bit_seed(self, data, width, seed):
        items = data.draw(st.lists(
            st.binary(min_size=width, max_size=width), max_size=600))
        assert list(murmur64a_many(items, seed)) == _reference_many(
            items, seed)

    @settings(max_examples=200, deadline=None)
    @given(items=st.lists(st.binary(max_size=40), max_size=600),
           seed=st.one_of(st.sampled_from(sorted(KNOWN_ANSWERS)),
                          st.integers(min_value=0, max_value=2**64 - 1)))
    def test_mixed_widths(self, items, seed):
        assert list(murmur64a_many(items, seed)) == _reference_many(
            items, seed)

    @pytest.mark.parametrize("seed", sorted(KNOWN_ANSWERS))
    def test_known_answers_one_width_at_a_time(self, seed):
        for width, answer in enumerate(KNOWN_ANSWERS[seed]):
            batch = murmur64a_many([_vector_input(width)] * 3, seed)
            assert list(batch) == [answer] * 3

    @pytest.mark.parametrize("seed", sorted(KNOWN_ANSWERS))
    def test_known_answers_in_one_mixed_batch(self, seed):
        items = [_vector_input(width) for width in range(34)]
        assert tuple(murmur64a_many(items, seed)) == KNOWN_ANSWERS[seed]

    def test_an_array_of_unsigned_64_bit_words(self):
        batch = murmur64a_many([b"abcdefgh"] * 2)
        assert batch.typecode == "Q" and batch.itemsize == 8
        assert len(murmur64a_many([])) == 0
