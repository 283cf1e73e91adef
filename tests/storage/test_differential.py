"""Differential property tests: each engine against a plain-dict model.

One seeded random op stream (put/get/delete/scan plus engine-specific
lifecycle events — flush, compaction, WAL crash-replay) is applied to both
the engine under test and an obviously-correct dict model; every read and
the final state must agree exactly.  The same harness shape covers the
LSM engine, the B+tree, and the Redis-style hash store, so a semantics
bug in any engine's read/merge/recovery path fails loudly with the op
index that exposed it.
"""

from __future__ import annotations

import random
import zlib
from hashlib import blake2b

from repro.storage.bloom import BloomFilter
from repro.storage.btree import BPlusTree
from repro.storage.hashstore import HashStore
from repro.storage.lsm.compaction import merge_sstables
from repro.storage.lsm.engine import LSMConfig, LSMEngine
from repro.storage.lsm.sstable import (
    SSTable,
    TOMBSTONE,
    Versioned,
    resolve_versions,
    sstable_entry_size,
)
from repro.storage.record import RecordSchema
from tests.rows import fields_of, row_of

N_OPS = 2000
KEYSPACE = [f"user{i:04d}" for i in range(150)]


def _fields(rng: random.Random, key: str, n: int = 3) -> dict[str, str]:
    return {f"field{i}": f"{key}:{rng.randrange(10_000)}" for i in range(n)}


def _model_scan(model: dict, start_key: str, count: int) -> list:
    keys = sorted(key for key in model if key >= start_key)[:count]
    return [(key, dict(model[key])) for key in keys]


def test_lsm_engine_matches_dict_model():
    """~2k random ops with flushes, compactions and crash-replays."""
    rng = random.Random(0xA11CE)
    config = LSMConfig(memtable_flush_bytes=1 << 30, group_commit_ops=16,
                       min_compaction_threshold=2)
    # Three-column rows: every put writes them all, so a memtable hit is
    # a complete one and answers alone.
    schema = RecordSchema(field_count=3)
    engine = LSMEngine(config, schema=schema)

    def as_fields(row):
        return fields_of(row, schema)

    # The mutation log doubles as the durable-state oracle: a crash loses
    # exactly the unsynced tail, so the model is rebuilt from the log with
    # that tail dropped — same contract as the engine's WAL replay.
    oplog: list[tuple] = []
    model: dict[str, dict[str, str]] = {}

    def apply(target: dict, op: tuple) -> None:
        if op[0] == "put":
            target[op[1]] = op[2]
        else:
            target.pop(op[1], None)

    for step in range(N_OPS):
        roll = rng.random()
        key = rng.choice(KEYSPACE)
        if roll < 0.45:
            fields = _fields(rng, key)
            engine.put(key, row_of(fields, schema))
            op = ("put", key, fields)
            oplog.append(op)
            apply(model, op)
        elif roll < 0.60:
            engine.delete(key)
            op = ("delete", key)
            oplog.append(op)
            apply(model, op)
        elif roll < 0.75:
            got = engine.get(key).row
            expect = model.get(key)
            assert (as_fields(got) if got is not None else None) == expect, \
                f"get({key!r}) diverged at op {step}"
        elif roll < 0.90:
            start = rng.choice(KEYSPACE)
            count = rng.randrange(1, 20)
            rows, __ = engine.scan(start, count)
            got = [(k, as_fields(v)) for k, v in rows]
            assert got == _model_scan(model, start, count), \
                f"scan({start!r}, {count}) diverged at op {step}"
        elif roll < 0.95:
            engine.flush()
            engine.maybe_compact()
        else:
            lost = engine.simulate_crash()
            if lost:
                del oplog[-lost:]
                model = {}
                for op in oplog:
                    apply(model, op)
    assert engine.record_count == len(model)
    for key in KEYSPACE:
        got = engine.get(key).row
        assert (as_fields(got) if got is not None else None) == model.get(key)
    rows, __ = engine.scan(KEYSPACE[0], len(KEYSPACE))
    assert ([(k, as_fields(v)) for k, v in rows]
            == _model_scan(model, KEYSPACE[0], len(KEYSPACE)))


def test_btree_matches_dict_model():
    """Same harness shape against the B+tree (small order forces splits)."""
    rng = random.Random(0xB7EE)
    tree = BPlusTree(order=8)
    model: dict[str, dict[str, str]] = {}
    for step in range(N_OPS):
        roll = rng.random()
        key = rng.choice(KEYSPACE)
        if roll < 0.50:
            fields = _fields(rng, key)
            was_new, __ = tree.put(key, fields)
            assert was_new == (key not in model), f"put at op {step}"
            model[key] = fields
        elif roll < 0.65:
            was_present, __ = tree.remove(key)
            assert was_present == (key in model), f"remove at op {step}"
            model.pop(key, None)
        elif roll < 0.85:
            value, __ = tree.get(key)
            assert value == model.get(key), f"get({key!r}) at op {step}"
        else:
            start = rng.choice(KEYSPACE)
            count = rng.randrange(1, 20)
            rows, __ = tree.scan(start, count)
            got = [(k, dict(v)) for k, v in rows]
            assert got == _model_scan(model, start, count), \
                f"scan at op {step}"
    assert len(tree) == len(model)
    assert ([(k, dict(v)) for k, v in tree.items()]
            == sorted((k, dict(v)) for k, v in model.items()))


def test_hashstore_matches_dict_model():
    """Same harness against the hash store, including column-merge HMSETs."""
    rng = random.Random(0xCAFE)
    store = HashStore()
    model: dict[str, dict[str, str]] = {}
    for step in range(N_OPS):
        roll = rng.random()
        key = rng.choice(KEYSPACE)
        if roll < 0.35:
            fields = _fields(rng, key)
            assert store.hset(key, row_of(fields))
            model[key] = dict(fields)
        elif roll < 0.50:
            # Partial update: HMSET merges columns into an existing hash.
            fields = _fields(rng, key, n=1)
            assert store.hset(key, row_of(fields))
            model.setdefault(key, {}).update(fields)
        elif roll < 0.65:
            existed = store.delete(key)
            assert existed == (key in model), f"delete at op {step}"
            model.pop(key, None)
        elif roll < 0.85:
            got = store.hgetall(key)
            assert (fields_of(got) if got is not None else None) \
                == model.get(key), f"hgetall({key!r}) at op {step}"
        else:
            start = rng.choice(KEYSPACE)
            count = rng.randrange(1, 20)
            got = [(k, fields_of(v)) for k, v in store.scan(start, count)]
            assert got == _model_scan(model, start, count), \
                f"scan at op {step}"
    assert len(store) == len(model)
    assert store.zrange_from(KEYSPACE[0], len(KEYSPACE)) == sorted(model)


# -- reference implementations of the ingestion path ---------------------------
#
# The per-record path below the kernel (hash, skip-list descent, entry
# sizing, Bloom add, run merge, block ids) is a harness cost, so it gets
# rewritten for speed; what it computes is what every simulated read
# sees, so it may not move.  The code as it stood before the rewrite
# lives on here as reference implementations (the method of
# ``tests/sim/test_join_in_place.py``): whatever ``repro.storage`` does
# today must leave the same keys, cells, sizes, filter bits, towers and
# block ids.  ``tests/test_hashing.py`` does the same for ``murmur64a``.


def _reference_entry_size(key, value) -> int:
    """``sstable_entry_size`` as a walk over the columns."""
    if isinstance(value, Versioned):
        value = value.value
    size = 2 + len(key) + 8 + 12 + 4
    if value is TOMBSTONE:
        return size
    for name, field_value in _columns(value).items():
        size += 2 + len(name) + 1 + 8 + 4 + len(field_value)
    return size


def _reference_bloom_bits(keys, n_bits: int, n_hashes: int) -> bytearray:
    """The filter's bit array after one ``add`` per key: two slices and
    two ``from_bytes`` of the digest, then a read-modify-write per bit."""
    bits = bytearray((n_bits + 7) // 8)
    for key in keys:
        digest = blake2b(key.encode("utf-8"), digest_size=16).digest()
        h1 = int.from_bytes(digest[:8], "big")
        h2 = int.from_bytes(digest[8:], "big") | 1
        pos, step = h1 % n_bits, h2 % n_bits
        for __ in range(n_hashes):
            bits[pos >> 3] |= 1 << (pos & 7)
            pos += step
            if pos >= n_bits:
                pos -= n_bits
    return bits


def _reference_merge(tables, drop_tombstones: bool):
    """``merge_sstables`` as a dict of version lists folded key by key."""
    by_key: dict = {}
    for table in tables:
        for key, versioned in table.items():
            by_key.setdefault(key, []).append(versioned)
    merged = []
    for key in sorted(by_key):
        versions = by_key[key]
        resolved = (versions[0] if len(versions) == 1
                    else resolve_versions(versions))
        if drop_tombstones and resolved.value is TOMBSTONE:
            continue
        merged.append((key, resolved))
    return merged


def _reference_block_of(engine, table, key) -> tuple:
    """A key's block id from the CRC of the formatted ``generation:key``."""
    offset_proxy = zlib.crc32(f"{table.generation}:{key}".encode())
    n_blocks = max(1, table.size_bytes // engine.config.block_size)
    return ("sst", engine.name, table.generation, offset_proxy % n_blocks)


def _partial_fields(rng: random.Random) -> dict[str, str]:
    names = rng.sample(range(5), rng.randrange(1, 6))
    return {f"field{i}": "v" * rng.randrange(0, 14) for i in names}


def _partial_row(rng: random.Random) -> tuple:
    """``_partial_fields`` as the row an engine holds: the values in
    ``field0``..``field4`` order, ``None`` for a column not written."""
    written = _partial_fields(rng)
    return tuple(written.get(f"field{i}") for i in range(5))


def _columns(row: tuple) -> dict[str, str]:
    """The written columns of a five-column row, by name."""
    return {f"field{i}": value for i, value in enumerate(row)
            if value is not None}


def _random_runs(rng: random.Random, n_runs: int, keyspace: list[str]):
    """Sorted runs with overlapping keys, tombstones and partial cells;
    sequence numbers are unique across the runs, as an engine stamps them."""
    seqs = list(range(1, n_runs * len(keyspace) + 1))
    rng.shuffle(seqs)
    runs = []
    for __ in range(n_runs):
        keys = sorted(rng.sample(keyspace, rng.randrange(0, len(keyspace))))
        runs.append(SSTable(
            [(key, Versioned(seqs.pop(),
                             TOMBSTONE if rng.random() < 0.2
                             else _partial_row(rng)))
             for key in keys]))
    return runs


def _assert_run_is(run: SSTable, expected: list, context: str) -> None:
    """``run`` holds exactly ``expected`` and is sized and filtered as a
    run built entry by entry would be."""
    assert [k for k, __ in run.items()] == [k for k, __ in expected], context
    assert ([(v.seq, v.value) for __, v in run.items()]
            == [(v.seq, v.value) for __, v in expected]), context
    assert run.size_bytes == sum(_reference_entry_size(k, v)
                                 for k, v in expected), context
    bloom = run.bloom
    assert bloom.n_items == len(expected), context
    assert bloom._bits == _reference_bloom_bits(
        [k for k, __ in expected], bloom.n_bits, bloom.n_hashes), context


def test_entry_size_matches_the_column_walk():
    rng = random.Random(0x512E)
    for __ in range(300):
        key = "k" * rng.randrange(0, 40)
        value = TOMBSTONE if rng.random() < 0.2 else _partial_row(rng)
        assert sstable_entry_size(key, value) == _reference_entry_size(
            key, value)
    empty = (None,) * 5
    assert sstable_entry_size("k", empty) == _reference_entry_size("k", empty)


def test_merge_matches_the_by_key_fold():
    """Overlapping keys, tombstones, partial cells, both purge modes."""
    rng = random.Random(0x3E26E)
    keyspace = [f"user{i:05d}" for i in range(60)]
    for round_ in range(120):
        runs = _random_runs(rng, rng.randrange(1, 6), keyspace)
        for drop in (False, True):
            merged = merge_sstables(runs, drop_tombstones=drop,
                                    bloom_fp_rate=0.02, generation=9)
            assert merged.generation == 9
            _assert_run_is(merged, _reference_merge(runs, drop),
                           f"round {round_}, drop_tombstones={drop}")


def test_merge_of_disjoint_runs_carries_every_cell_over():
    """The load's own compaction: no key in two runs, nothing to fold —
    the merged run holds every version its inputs held, by the very row
    object (a run holds rows and sequence numbers, not cells)."""
    rng = random.Random(0xD15)
    keys = [f"user{i:05d}" for i in range(400)]
    rng.shuffle(keys)
    runs = []
    for start in range(0, 400, 100):
        cells = {key: Versioned(seq, TOMBSTONE if seq % 17 == 0
                                else _partial_row(rng))
                 for seq, key in enumerate(keys[start:start + 100],
                                           start + 1)}
        runs.append(SSTable(sorted(cells.items())))
    held = {key: v for run in runs for key, v in run.items()}
    for drop in (False, True):
        merged = merge_sstables(runs, drop_tombstones=drop)
        _assert_run_is(merged, _reference_merge(runs, drop),
                       f"drop_tombstones={drop}")
        assert all(v == held[key] for key, v in merged.items())
        assert all(v.value is held[key].value for key, v in merged.items())
    kept = merge_sstables(runs, drop_tombstones=False)
    assert kept.size_bytes == sum(run.size_bytes for run in runs)


def _row(**columns) -> tuple:
    return row_of(columns)


def test_merge_folds_a_key_held_by_three_runs():
    old = SSTable([("a", Versioned(1, _row(field0="x", field1="y"))),
                   ("b", Versioned(2, _row(field0="b"))),
                   ("c", Versioned(3, _row(field0="c")))])
    mid = SSTable([("a", Versioned(5, _row(field1="yy", field2="z"))),
                   ("b", Versioned(6, TOMBSTONE))])
    new = SSTable([("a", Versioned(8, _row(field0="xxx"))),
                   ("b", Versioned(9, _row(field3="revived"))),
                   ("c", Versioned(7, TOMBSTONE))])
    for runs in ([old, mid, new], [new, old, mid], [mid, new, old]):
        for drop in (False, True):
            merged = merge_sstables(runs, drop_tombstones=drop)
            _assert_run_is(merged, _reference_merge(runs, drop),
                           f"drop_tombstones={drop}")
    merged = merge_sstables([old, mid, new], drop_tombstones=True)
    assert list(merged.items()) == [
        ("a", Versioned(8, _row(field0="xxx", field1="yy", field2="z"))),
        ("b", Versioned(9, _row(field3="revived")))]


def test_flushed_run_is_sized_and_filtered_entry_by_entry():
    """A flush's run against per-entry sizing and per-key Bloom adds,
    over memtables that saw upserts, deletes and revivals."""
    rng = random.Random(0xF1A5)
    keyspace = [f"user{i:05d}" for i in range(80)]
    for round_ in range(60):
        engine = LSMEngine(LSMConfig(memtable_flush_bytes=1 << 30))
        for __ in range(rng.randrange(1, 200)):
            key = rng.choice(keyspace)
            if rng.random() < 0.2:
                engine.delete(key)
            else:
                engine.put(key, _partial_row(rng))
        expected = engine.memtable.sorted_items()
        written = engine.flush()
        run = engine.sstables[-1]
        _assert_run_is(run, expected, f"round {round_}")
        assert written == run.size_bytes


def test_bloom_membership_matches_the_per_key_filter():
    """Present keys pass, and absent keys are answered exactly as the
    filter built one ``add`` at a time answers them."""
    rng = random.Random(0xB100)
    for n_keys in (1, 2, 7, 64, 1000, 1537):
        keys = sorted({f"user{rng.randrange(10**21):021d}"
                       for __ in range(n_keys)})
        run = SSTable([(key, Versioned(i + 1, {"field0": "x"}))
                       for i, key in enumerate(keys)], bloom_fp_rate=0.01)
        bloom = run.bloom
        reference = BloomFilter(max(1, len(keys)), 0.01)
        assert (reference.n_bits, reference.n_hashes) == (
            bloom.n_bits, bloom.n_hashes)
        reference._bits = _reference_bloom_bits(keys, reference.n_bits,
                                                reference.n_hashes)
        assert bloom._bits == reference._bits
        assert bloom.n_items == len(keys)
        assert all(bloom.might_contain(key) for key in keys)
        for i in range(2000):
            absent = f"miss{i:021d}"
            assert bloom.might_contain(absent) == (
                reference.might_contain(absent))


def test_bloom_add_one_by_one_matches_the_reference_bits():
    bloom = BloomFilter(500, 0.01)
    keys = [f"user{i * 7919:021d}" for i in range(500)]
    for key in keys:
        bloom.add(key)
    assert bloom.n_items == 500
    assert bloom._bits == _reference_bloom_bits(keys, bloom.n_bits,
                                                bloom.n_hashes)


def test_bloom_batches_match_the_reference_bits():
    """Batches of any size — empty, one key, a generator — onto filters
    small enough that a key's step is often 0 mod ``n_bits``."""
    rng = random.Random(0xBA7C)
    for expected in (1, 2, 5, 40, 700):
        bloom = BloomFilter(expected, 0.01)
        keys = [f"user{rng.randrange(10**21):021d}"
                for __ in range(max(80, 2 * expected + 3))]
        zero_steps = sum(
            (int.from_bytes(blake2b(key.encode(), digest_size=16)
                            .digest()[8:], "big") | 1) % bloom.n_bits == 0
            for key in keys)
        assert expected > 2 or zero_steps  # the edge is exercised
        cut = rng.randrange(len(keys))
        bloom.add_all(keys[:cut])
        bloom.add_all([])
        bloom.add_all(key for key in keys[cut:])
        assert bloom.n_items == len(keys)
        assert bloom._bits == _reference_bloom_bits(keys, bloom.n_bits,
                                                    bloom.n_hashes)
        assert all(bloom.might_contain(key) for key in keys)


def test_read_blocks_match_the_formatted_string_crc():
    """``get``/``scan``/``iter_blocks`` name the blocks the CRC of the
    formatted ``"<generation>:<key>"`` string names."""
    rng = random.Random(0xB10C)
    for bloom_enabled in (False, True):
        config = LSMConfig(memtable_flush_bytes=1 << 30, block_size=256,
                           bloom_enabled=bloom_enabled,
                           min_compaction_threshold=4,
                           max_compaction_threshold=5)
        engine = LSMEngine(config, name="blocks")
        keys = [f"user{rng.randrange(10**21):021d}" for __ in range(900)]
        for i, key in enumerate(keys):
            engine.put(key, ("x" * 10,) * 5)
            if i % 100 == 99:
                engine.flush()
        engine.maybe_compact()
        for i in range(200):
            engine.put(keys[i], ("y" * 10, None, None, None, None))
        engine.flush()
        assert len(engine.sstables) >= 3

        def expected_blocks(key):
            return tuple(
                _reference_block_of(engine, table, key)
                for table in reversed(engine.sstables)
                if table.min_key <= key <= table.max_key
                and (not bloom_enabled or table.bloom.might_contain(key)))

        probes = keys[::7] + [f"user{rng.randrange(10**21):021d}"
                              for __ in range(100)]
        for key in probes:
            assert engine.get(key).bill.blocks == expected_blocks(key)
        assert list(engine.iter_blocks()) == [
            _reference_block_of(engine, table, key)
            for table in engine.sstables for key, __ in table.items()]
        start = sorted(keys)[450]
        rows, bill = engine.scan(start, 12)
        assert len(rows) == 12
        assert bill.blocks == tuple(
            _reference_block_of(engine, table, key)
            for table in engine.sstables
            for key, __ in table.scan(start, 12))
