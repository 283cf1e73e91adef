"""Unit tests for key choosers and record generation."""

import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.keyspace import (KEY_LENGTH, format_key, lex_position,
                            render_key, scatter_hash)
from repro.storage.record import APM_SCHEMA, RecordSchema
from repro.ycsb import generator
from repro.ycsb.generator import (
    KeySequence,
    LatestChooser,
    UniformChooser,
    ZipfianChooser,
    generate_field_value,
    generate_record,
    generate_records,
    make_chooser,
)
from tests.rows import row_of

_BATCH = generator._SCATTER_BATCH


class TestKeyFormat:
    def test_key_length_is_25_bytes(self):
        assert KEY_LENGTH == 25
        assert len(format_key(0)) == 25
        assert len(format_key(10**9)) == 25

    def test_keys_are_unique(self):
        keys = {format_key(i) for i in range(10_000)}
        assert len(keys) == 10_000

    def test_keys_scattered_lexicographically(self):
        # sequential record numbers land all over the key space
        positions = [lex_position(format_key(i)) for i in range(100)]
        assert max(positions) - min(positions) > 0.8


class TestRecordGeneration:
    def test_record_matches_schema(self):
        key, row = generate_record(17)
        assert type(row) is tuple
        assert len(key) == APM_SCHEMA.key_length
        assert [len(value) for value in row] == [APM_SCHEMA.field_length] * 5
        assert len(key) + sum(map(len, row)) == APM_SCHEMA.raw_record_bytes

    def test_a_schema_of_another_key_length_is_refused(self):
        # Keys render KEY_LENGTH characters long; a schema billing
        # another length would price keys the generator does not make.
        assert RecordSchema().key_length == KEY_LENGTH
        short = RecordSchema(key_length=10)
        with pytest.raises(ValueError, match="key_length"):
            generate_record(0, short)
        with pytest.raises(ValueError, match="key_length"):
            list(generate_records(1, short))

    def test_deterministic(self):
        assert generate_record(5) == generate_record(5)
        assert generate_record(5) != generate_record(6)

    def test_field_values_differ_between_fields(self):
        __, row = generate_record(3)
        assert len(set(row)) > 1

    def test_generate_records_count(self):
        records = list(generate_records(7))
        assert len(records) == 7
        assert records[0] == generate_record(0)

    @pytest.mark.parametrize("count", [
        0, 1, _BATCH - 1, _BATCH, _BATCH + 1, 2 * _BATCH + 1])
    def test_generate_records_across_hash_batches(self, count):
        # The scatter hashes are taken a batch at a time; record r on
        # either side of a cut is still generate_record(r).
        assert list(generate_records(count)) == [
            generate_record(number) for number in range(count)]

    def test_field_value_length(self):
        assert len(generate_field_value(1, 2, 10)) == 10
        assert len(generate_field_value(1, 2, 25)) == 25

    @settings(max_examples=25, deadline=None)
    @given(field_count=st.integers(1, 20),
           field_length=st.integers(1, 400),
           count=st.sampled_from([0, 1, _BATCH - 1, _BATCH, _BATCH + 1,
                                  2 * _BATCH - 1, 2 * _BATCH,
                                  2 * _BATCH + 1]))
    def test_generate_records_equals_the_record_path(self, field_count,
                                                     field_length, count):
        schema = RecordSchema(field_count=field_count,
                              field_length=field_length)
        assert list(generate_records(count, schema)) == [
            reference_pair(number, schema) for number in range(count)]

    @pytest.mark.parametrize("count", [0, 3, _BATCH + 1])
    def test_generate_records_calls_generate_record_once_a_record(
            self, monkeypatch, count):
        # A traced run counts the records a point loads by wrapping the
        # module's generate_record.
        calls = []
        real = generator.generate_record

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(generator, "generate_record", counted)
        assert len(list(generate_records(count))) == count
        assert calls == list(range(count))


def reference_pair(record_number, schema):
    """``(key, row)`` of ``record_number`` the way a record was first
    made: a key with a field dict, then its fields as a row."""
    scattered = scatter_hash(record_number)
    values = generator._value_table(schema.field_length).__getitem__
    picks = generator._picks(scattered, schema.field_count)
    fields = dict(zip(schema.field_names, map(values, picks)))
    return render_key(scattered), row_of(fields, schema)


#: The data set, pinned: ``record number -> (key, field0..field4)``.
GOLDEN_RECORDS = {
    0: ("user015659975442190377284",
        ("bw0525i3u5", "268d14tqau", "3orudqfzez", "vrmbc8dtjs",
         "m3990585z2")),
    1: ("user002308726568914317663",
        ("s8s6z8mzkb", "d79xpemaik", "akt2mqufyt", "03iykok99x",
         "mqy0k4j6nc")),
    123456789: ("user011784778213415131826",
                ("6dcj0yxv3m", "mlzhamaf9z", "s8s6z8mzkb", "bm97fghgpr",
                 "copma7dnnm")),
}

_ALPHABET = set("abcdefghijklmnopqrstuvwxyz0123456789")

_DUMP_RECORDS = (
    "from repro.ycsb.generator import generate_records\n"
    "for key, row in generate_records(200):\n"
    "    print(key, *row)\n"
)


class TestDataSetDefinition:
    def test_golden_vector(self):
        for number, pair in GOLDEN_RECORDS.items():
            assert generate_record(number) == pair

    @settings(max_examples=60, deadline=None)
    @given(record_number=st.integers(0, 2**64 - 1),
           # One scatter hash picks eight fields; the rest come from
           # re-hashing, so go past it.
           field_count=st.integers(1, 20),
           field_length=st.integers(1, 400))
    def test_field_value_is_the_records_field(self, record_number,
                                              field_count, field_length):
        schema = RecordSchema(field_count=field_count,
                              field_length=field_length)
        __, row = generate_record(record_number, schema)
        assert len(row) == field_count
        for i, stored in enumerate(row):
            value = generate_field_value(record_number, i, field_length)
            assert value == stored
            assert len(value) == field_length
            assert set(value) <= _ALPHABET

    def test_every_symbol_occurs(self):
        seen = set()
        for __, row in generate_records(50):
            seen.update(*row)
        assert seen == _ALPHABET

    def test_independent_of_the_interpreters_hash_seed(self):
        src = str(Path(repro.__file__).resolve().parent.parent)
        dumps = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            dumps.append(subprocess.run(
                [sys.executable, "-c", _DUMP_RECORDS], env=env, check=True,
                capture_output=True, text=True, timeout=60).stdout)
        assert dumps[0] == dumps[1]
        assert dumps[0].count("\n") == 200


class TestKeySequence:
    def test_monotone(self):
        sequence = KeySequence(100)
        assert sequence.take() == 100
        assert sequence.take() == 101
        assert sequence.next_value == 102


class TestUniformChooser:
    def test_bounds(self):
        chooser = UniformChooser(100, random.Random(1))
        values = [chooser.next_record_number() for __ in range(1000)]
        assert min(values) >= 0
        assert max(values) < 100

    def test_roughly_uniform(self):
        chooser = UniformChooser(10, random.Random(2))
        counts = Counter(chooser.next_record_number()
                         for __ in range(20_000))
        assert max(counts.values()) / min(counts.values()) < 1.3

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            UniformChooser(0, random.Random(1))


class TestZipfianChooser:
    def test_bounds(self):
        chooser = ZipfianChooser(1000, random.Random(3))
        values = [chooser.next_record_number() for __ in range(2000)]
        assert min(values) >= 0
        assert max(values) < 1000

    def test_skews_to_low_items(self):
        chooser = ZipfianChooser(1000, random.Random(4))
        values = [chooser.next_record_number() for __ in range(20_000)]
        head = sum(1 for v in values if v < 100)
        assert head / len(values) > 0.5  # top 10% gets most traffic


class TestLatestChooser:
    def test_skews_to_recent(self):
        sequence = KeySequence(1000)
        chooser = LatestChooser(sequence, random.Random(5))
        values = [chooser.next_record_number() for __ in range(5000)]
        recent = sum(1 for v in values if v >= 900)
        assert recent / len(values) > 0.5
        assert max(values) < 1000

    def test_follows_inserts(self):
        sequence = KeySequence(100)
        chooser = LatestChooser(sequence, random.Random(6))
        for __ in range(500):
            sequence.take()
        values = [chooser.next_record_number() for __ in range(2000)]
        assert max(values) >= 100  # sees the newly inserted range


class TestMakeChooser:
    def test_dispatch(self):
        sequence = KeySequence(10)
        rng = random.Random(0)
        assert isinstance(make_chooser("uniform", 10, sequence, rng),
                          UniformChooser)
        assert isinstance(make_chooser("zipfian", 10, sequence, rng),
                          ZipfianChooser)
        assert isinstance(make_chooser("latest", 10, sequence, rng),
                          LatestChooser)

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_chooser("pareto", 10, KeySequence(0), random.Random(0))
