"""Unit and property tests for the full LSM engine."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.lsm import LSMConfig, LSMEngine
from repro.storage.lsm.engine import IoBill
def row(tag):
    return (f"{tag}"[:10].ljust(10, "x"),) * 5


@pytest.fixture
def engine():
    return LSMEngine(LSMConfig(memtable_flush_bytes=4000))


class TestWritePath:
    def test_put_then_get(self, engine):
        engine.put("key1", row("v1"))
        assert engine.get("key1").row == row("v1")

    def test_overwrite(self, engine):
        engine.put("k", row("old"))
        engine.put("k", row("new"))
        assert engine.get("k").row == row("new")

    def test_delete(self, engine):
        engine.put("k", row("v"))
        engine.delete("k")
        assert engine.get("k").row is None

    def test_delete_of_flushed_key(self, engine):
        engine.put("k", row("v"))
        engine.flush()
        engine.delete("k")
        assert engine.get("k").row is None

    def test_partial_update_across_flush(self, engine):
        engine.put("k", row("base"))
        engine.flush()
        engine.put("k", ("updated!!!", None, None, None, None))
        result = engine.get("k").row
        assert result == ("updated!!!",) + row("base")[1:]

    def test_flush_triggered_by_size(self, engine):
        for i in range(100):
            engine.put(f"key{i:05d}", row(i))
        assert engine.flushes >= 1
        assert engine.sstables

    def test_flush_empties_memtable(self, engine):
        engine.put("k", row("v"))
        written = engine.flush()
        assert written > 0
        assert len(engine.memtable) == 0
        assert engine.flush() == 0  # nothing buffered

    def test_io_bill_reports_wal_syncs(self):
        engine = LSMEngine(LSMConfig(group_commit_ops=2,
                                     memtable_flush_bytes=10**9))
        first = engine.put("a", row("1"))
        second = engine.put("b", row("2"))
        assert first.wal_sync_bytes == 0
        assert second.wal_sync_bytes > 0


class TestReadPath:
    def test_read_consults_all_candidate_runs(self, engine):
        engine.put("k", ("a" * 10, None, None, None, None))
        engine.flush()
        engine.put("k", (None, "b" * 10, None, None, None))
        engine.flush()
        result = engine.get("k")
        assert result.row == ("a" * 10, "b" * 10, None, None, None)
        assert result.bill.runs_touched >= 2

    def test_memtable_hit_skips_disk(self, engine):
        engine.put("k", row("v"))
        result = engine.get("k")
        assert result.bill.runs_touched == 0
        assert result.bill.blocks == ()

    def test_memtable_hit_is_the_callers_copy(self, engine):
        """A row is immutable, so a read hands out the one the write
        gave: from the memtable and from the run it flushed into."""
        written = row("v")
        engine.put("k", written)
        assert engine.get("k").row is written
        engine.flush()
        assert engine.get("k").row is written

    def test_bloom_prunes_probes(self):
        engine = LSMEngine(LSMConfig(memtable_flush_bytes=10**9))
        for i in range(200):
            engine.put(f"key{i:05d}", row(i))
        engine.flush()
        engine.sstables_probed = 0
        for i in range(200):
            engine.get(f"missing{i:05d}")
        assert engine.sstables_probed < 20

    def test_bloom_disabled_uses_key_range(self):
        engine = LSMEngine(LSMConfig(memtable_flush_bytes=10**9,
                                     bloom_enabled=False))
        for i in range(50):
            engine.put(f"key{i:05d}", row(i))
        engine.flush()
        assert engine.get("key00025").row == row(25)
        result = engine.get("zzz")  # outside key range: no probe
        assert result.bill.runs_touched == 0

    def test_scan_merges_runs_and_memtable(self, engine):
        engine.put("a", row("a"))
        engine.put("c", row("c1"))
        engine.flush()
        engine.put("b", row("b"))
        engine.put("c", row("c2"))
        rows, __ = engine.scan("a", 10)
        assert [k for k, __v in rows] == ["a", "b", "c"]
        assert dict(rows)["c"] == row("c2")

    def test_scan_hides_tombstones(self, engine):
        for key in ["a", "b", "c"]:
            engine.put(key, row(key))
        engine.flush()
        engine.delete("b")
        rows, __ = engine.scan("a", 10)
        assert [k for k, __v in rows] == ["a", "c"]

    def test_scan_respects_count(self, engine):
        for i in range(50):
            engine.put(f"k{i:03d}", row(i))
        rows, __ = engine.scan("k000", 7)
        assert len(rows) == 7

    def test_scan_of_zero_rows_reads_nothing(self, engine):
        """A zero count is a full chunk of nothing, not a frontier."""
        for i in range(50):
            engine.put(f"k{i:03d}", row(i))
        engine.flush()
        engine.put("k100", row(100))
        assert engine.scan("k000", 0) == ([], IoBill())


class TestCompactionIntegration:
    def test_compaction_reduces_sstables(self):
        engine = LSMEngine(LSMConfig(memtable_flush_bytes=2000,
                                     min_compaction_threshold=4))
        for i in range(600):
            engine.put(f"key{i % 50:05d}", row(i))
        assert engine.compaction.compactions_run >= 1
        # reads stay correct after compaction reshuffles run order
        assert engine.get("key00049").row is not None

    def test_disk_bytes_tracks_runs_and_log(self, engine):
        assert engine.disk_bytes == 0
        engine.put("k", row("v"))
        assert engine.disk_bytes > 0  # commit log bytes
        engine.flush()
        assert engine.disk_bytes >= sum(
            t.size_bytes for t in engine.sstables)

    def test_record_count(self, engine):
        for i in range(20):
            engine.put(f"k{i}", row(i))
        engine.delete("k3")
        engine.flush()
        assert engine.record_count == 19

    def test_iter_blocks_covers_all_runs(self, engine):
        for i in range(30):
            engine.put(f"k{i:03d}", row(i))
        engine.flush()
        blocks = list(engine.iter_blocks())
        assert len(blocks) == sum(len(t) for t in engine.sstables)


class TestModelBased:
    def test_random_ops_match_dict_model(self):
        engine = LSMEngine(LSMConfig(memtable_flush_bytes=3000))
        model = {}
        rng = random.Random(7)
        for i in range(4000):
            key = f"key{rng.randrange(300):05d}"
            roll = rng.random()
            if roll < 0.65:
                value = row(i)
                engine.put(key, value)
                model[key] = value
            elif roll < 0.85:
                assert engine.get(key).row == model.get(key)
            else:
                engine.delete(key)
                model.pop(key, None)
        for key, value in model.items():
            assert engine.get(key).row == value
        assert engine.record_count == len(model)

    def test_scan_matches_model_after_churn(self):
        engine = LSMEngine(LSMConfig(memtable_flush_bytes=3000))
        model = {}
        rng = random.Random(8)
        for i in range(2000):
            key = f"key{rng.randrange(200):05d}"
            if rng.random() < 0.15:
                engine.delete(key)
                model.pop(key, None)
            else:
                value = row(i)
                engine.put(key, value)
                model[key] = value
        start = "key00100"
        rows, __ = engine.scan(start, 25)
        expected = sorted((k, v) for k, v in model.items()
                          if k >= start)[:25]
        assert rows == expected


@settings(max_examples=25, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 40), st.sampled_from(["put", "delete"])),
    max_size=120,
))
def test_property_engine_equals_dict(operations):
    engine = LSMEngine(LSMConfig(memtable_flush_bytes=1500))
    model = {}
    for i, (key_number, action) in enumerate(operations):
        key = f"key{key_number:03d}"
        if action == "put":
            value = row(i)
            engine.put(key, value)
            model[key] = value
        else:
            engine.delete(key)
            model.pop(key, None)
    for key_number in range(41):
        key = f"key{key_number:03d}"
        assert engine.get(key).row == model.get(key)
    rows, __ = engine.scan("key000", 50)
    assert rows == sorted(model.items())[:50]
