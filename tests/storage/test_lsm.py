"""Unit tests for the LSM components: memtable, WAL, SSTable, compaction.

The components hold rows, tuples of field values in the schema's
``field_names`` order: the cells below are built as rows of the APM
schema (``row``), or of a wider one where column-name lengths matter.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.lsm.compaction import SizeTieredCompaction, merge_sstables
from repro.storage.lsm.memtable import Memtable
from repro.storage.lsm.sstable import (
    SSTable,
    TOMBSTONE,
    Versioned,
    resolve_versions,
    sstable_entry_size,
)
from repro.storage.lsm.wal import CommitLog
from repro.storage.record import APM_SCHEMA, RecordSchema
from tests.rows import row_of


def fields(tag):
    """A full record's row."""
    return tuple(f"{tag}-{i}".ljust(10, "x") for i in range(5))


def row(**columns):
    """A row of the APM schema writing only ``columns``."""
    return row_of(columns)


class TestVersioned:
    def test_resolve_newest_wins(self):
        versions = [Versioned(1, row(field0="1")),
                    Versioned(3, row(field0="3")),
                    Versioned(2, row(field0="2"))]
        assert resolve_versions(versions).value == row(field0="3")

    def test_resolve_merges_partial_fields(self):
        versions = [Versioned(1, row(field0="1", field1="1")),
                    Versioned(2, row(field1="2"))]
        assert resolve_versions(versions).value == row(field0="1",
                                                       field1="2")

    def test_tombstone_wipes_older_only(self):
        versions = [Versioned(1, row(field0="1")), Versioned(2, TOMBSTONE),
                    Versioned(3, row(field1="3"))]
        assert resolve_versions(versions).value == row(field1="3")

    def test_newest_tombstone_deletes(self):
        versions = [Versioned(1, row(field0="1")), Versioned(2, TOMBSTONE)]
        assert resolve_versions(versions).value is TOMBSTONE

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            resolve_versions([])


class TestEntrySize:
    def test_matches_serialized_layout(self):
        from repro.storage.encoding import encode_sstable_row
        assert sstable_entry_size("k" * 25, fields("v")) == len(
            encode_sstable_row("k" * 25, fields("v"), APM_SCHEMA))

    def test_tombstone_is_small(self):
        assert sstable_entry_size("k" * 25, TOMBSTONE) == 2 + 25 + 8 + 12 + 4


class TestMemtable:
    def test_put_get(self):
        memtable = Memtable()
        memtable.put("a", fields("1"), seq=1)
        assert memtable.get("a").value == fields("1")
        assert memtable.get("missing") is None

    def test_upsert_merges_fields(self):
        memtable = Memtable()
        memtable.put("a", row(field0="x" * 10), seq=1)
        memtable.put("a", row(field1="y" * 10), seq=2)
        assert memtable.get("a").value == row(field0="x" * 10,
                                              field1="y" * 10)
        assert memtable.get("a").seq == 2

    def test_delete_marks_tombstone(self):
        memtable = Memtable()
        memtable.put("a", fields("1"), seq=1)
        memtable.delete("a", seq=2)
        assert memtable.get("a").value is TOMBSTONE

    def test_size_accounting(self):
        memtable = Memtable()
        assert memtable.size_bytes == 0
        memtable.put("a" * 25, fields("1"), seq=1)
        one = memtable.size_bytes
        assert one == sstable_entry_size("a" * 25, fields("1"))
        memtable.put("a" * 25, fields("2"), seq=2)  # overwrite, same size
        assert memtable.size_bytes == one
        memtable.put("b" * 25, fields("3"), seq=3)
        assert memtable.size_bytes == 2 * one

    def test_put_returns_the_size_of_the_write(self):
        memtable = Memtable()
        first = row(field0="x" * 10)
        assert memtable.put("a", first, seq=1) == sstable_entry_size(
            "a", first)
        # An upsert reports the columns written, not the merged entry.
        second = row(field1="y" * 10, field2="z" * 10)
        assert memtable.put("a", second, seq=2) == sstable_entry_size(
            "a", second)
        assert memtable.size_bytes == sstable_entry_size(
            "a", row(field0="x" * 10, field1="y" * 10, field2="z" * 10))

    def test_put_over_tombstone_starts_afresh(self):
        memtable = Memtable()
        memtable.delete("a", seq=1)
        memtable.put("a", row(field1="y" * 10), seq=2)
        assert memtable.get("a").value == row(field1="y" * 10)
        assert memtable.get("a").seq == 2
        assert len(memtable) == 1

    def test_sorted_items(self):
        memtable = Memtable()
        for key in ["c", "a", "b"]:
            memtable.put(key, fields(key), seq=1)
        assert [k for k, __ in memtable.sorted_items()] == ["a", "b", "c"]

    def test_size_counts_a_tombstone_over_a_buffered_put(self):
        memtable = Memtable()
        memtable.put("a" * 25, fields("1"), seq=1)
        memtable.delete("a" * 25, seq=2)
        assert memtable.size_bytes == sstable_entry_size("a" * 25, TOMBSTONE)

    def test_size_drops_the_tombstone_a_put_replaces(self):
        memtable = Memtable()
        memtable.delete("a" * 25, seq=1)
        memtable.delete("a" * 25, seq=2)  # still one tombstone
        assert memtable.size_bytes == sstable_entry_size("a" * 25, TOMBSTONE)
        memtable.put("a" * 25, fields("1"), seq=3)
        assert memtable.size_bytes == sstable_entry_size("a" * 25,
                                                         fields("1"))

    #: Twelve columns, ``field0``..``field11``: names of two lengths.
    WIDE = RecordSchema(field_count=12)

    @settings(max_examples=200, deadline=None)
    @given(ops=st.lists(
        st.tuples(
            st.sampled_from(["k1", "k22", "k333", "k4444"]),
            st.one_of(
                st.none(),  # delete
                st.dictionaries(
                    st.sampled_from(["field0", "field1", "field10",
                                     "field11"]),
                    st.text(alphabet="xyz", max_size=12), max_size=4))),
        max_size=40))
    def test_size_is_what_the_flush_writes(self, ops):
        """After any put / partial upsert / delete / revive sequence the
        running total equals the serialised size of the run a flush of
        this memtable builds, entry by entry."""
        wide = self.WIDE
        memtable = Memtable(schema=wide)
        for seq, (key, written) in enumerate(ops, start=1):
            if written is None:
                memtable.delete(key, seq)
            else:
                memtable.put(key, row_of(written, wide), seq)
            assert memtable.size_bytes == sum(
                sstable_entry_size(k, v.value, wide)
                for k, v in memtable.sorted_items())
        assert memtable.size_bytes == SSTable(
            memtable.sorted_items(), schema=wide).size_bytes


class TestCommitLog:
    def test_group_commit_batches(self):
        log = CommitLog(group_commit_ops=4)
        flushed = [log.append(100) for __ in range(8)]
        # syncs happen on every 4th append, flushing the whole batch
        assert flushed[:3] == [0, 0, 0]
        assert flushed[3] == 4 * 112
        assert flushed[4:7] == [0, 0, 0]
        assert flushed[7] == 4 * 112
        assert log.syncs == 2

    def test_sync_per_write_mode(self):
        log = CommitLog(group_commit_ops=1)
        assert log.append(100) == 112
        assert log.syncs == 1

    def test_force_sync_flushes_partial_batch(self):
        log = CommitLog(group_commit_ops=100)
        log.append(100)
        assert log.force_sync() == 112
        assert log.force_sync() == 0  # nothing pending

    def test_segment_rotation_and_recycling(self):
        log = CommitLog(segment_size_bytes=1000, group_commit_ops=100)
        for __ in range(30):
            log.append(100)
        assert len(log.segments) > 1
        active = log.active_segment.index
        reclaimed = log.mark_clean(active - 1)
        assert reclaimed > 0
        assert all(s.index >= active for s in log.segments)

    def test_invalid_group_commit(self):
        with pytest.raises(ValueError):
            CommitLog(group_commit_ops=0)


class TestSSTable:
    def make(self, keys, seq_start=1):
        return SSTable([(k, Versioned(seq_start + i, fields(k)))
                        for i, k in enumerate(sorted(keys))])

    def test_requires_sorted_unique_input(self):
        with pytest.raises(ValueError):
            SSTable([("b", Versioned(1, fields("b"))),
                     ("a", Versioned(2, fields("a")))])
        with pytest.raises(ValueError):
            SSTable([("a", Versioned(1, fields("a"))),
                     ("a", Versioned(2, fields("a")))])

    def test_get(self):
        table = self.make(["a", "b", "c"])
        assert table.get("b").value == fields("b")
        assert table.get("z") is None

    def test_min_max_and_may_contain(self):
        table = self.make(["b", "d"])
        assert table.min_key == "b"
        assert table.max_key == "d"
        assert not table.may_contain("a")
        assert not table.may_contain("e")
        assert table.may_contain("b")

    def test_bloom_rejects_most_absent_keys(self):
        table = self.make([f"k{i:04d}" for i in range(500)])
        rejected = sum(
            not table.may_contain(f"k{i:04d}x") for i in range(500))
        assert rejected > 450

    def test_scan(self):
        table = self.make([f"k{i}" for i in range(10)])
        rows = table.scan("k3", 3)
        assert [k for k, __ in rows] == ["k3", "k4", "k5"]

    def test_size_bytes(self):
        table = self.make(["a"])
        assert table.size_bytes == sstable_entry_size("a", fields("a"))

    def test_generations_increase(self):
        first = self.make(["a"])
        second = self.make(["a"])
        assert second.generation > first.generation

    @settings(max_examples=200, deadline=None)
    @given(entries=st.dictionaries(
        st.text(alphabet="abcdef", min_size=1, max_size=4),
        st.tuples(st.sampled_from([0, 2**63, 2**64 - 1])
                  | st.integers(min_value=0, max_value=2**64 - 1),
                  st.booleans()),
        max_size=30),
        start=st.text(alphabet="abcdef", max_size=4),
        count=st.integers(min_value=0, max_value=35))
    def test_sequence_numbers_round_trip_to_the_top_of_the_column(
            self, entries, start, count):
        """A run's sequence numbers are a ``Q`` column: every one up to
        ``2**64 - 1`` comes back whole from ``items``, ``scan`` and
        ``get``, beside live rows and tombstones alike."""
        pairs = [(key, Versioned(seq, TOMBSTONE if deleted else fields(key)))
                 for key, (seq, deleted) in sorted(entries.items())]
        table = SSTable(list(pairs))
        assert list(table.items()) == pairs
        expected = [pair for pair in pairs if pair[0] >= start][:count]
        assert table.scan(start, count) == expected
        for key, version in pairs:
            found = table.get(key)
            assert found == version and found.value is version.value
        assert table.get("g") is None

    @pytest.mark.parametrize("seq", [-1, -(2**63), 2**64])
    def test_a_sequence_number_off_the_column_raises_and_does_not_wrap(
            self, seq):
        with pytest.raises(OverflowError):
            SSTable([("a", Versioned(1, fields("a"))),
                     ("b", Versioned(seq, TOMBSTONE))])


class TestCompaction:
    def test_merge_prefers_newer_versions(self):
        old = SSTable([("a", Versioned(1, fields("old")))])
        new = SSTable([("a", Versioned(2, fields("new")))])
        merged = merge_sstables([old, new], drop_tombstones=False)
        assert merged.get("a").value == fields("new")
        assert len(merged) == 1

    def test_merge_carries_unshadowed_cells_over(self):
        left = SSTable([("a", Versioned(1, fields("a"))),
                        ("c", Versioned(4, TOMBSTONE))])
        right = SSTable([("b", Versioned(2, fields("b"))),
                         ("d", Versioned(3, fields("d")))])
        kept = merge_sstables([left, right], drop_tombstones=False)
        assert list(kept.items()) == sorted(
            list(left.items()) + list(right.items()))
        assert kept.size_bytes == left.size_bytes + right.size_bytes
        purged = merge_sstables([left, right], drop_tombstones=True)
        assert [k for k, __ in purged.items()] == ["a", "b", "d"]

    def test_merge_drops_shadowed_tombstones(self):
        data = SSTable([("a", Versioned(1, fields("a")))])
        tomb = SSTable([("a", Versioned(2, TOMBSTONE))])
        merged = merge_sstables([data, tomb], drop_tombstones=True)
        assert len(merged) == 0

    def test_merge_keeps_tombstones_when_partial(self):
        data = SSTable([("a", Versioned(1, fields("a")))])
        tomb = SSTable([("a", Versioned(2, TOMBSTONE))])
        merged = merge_sstables([data, tomb], drop_tombstones=False)
        assert merged.get("a").value is TOMBSTONE

    def test_plan_requires_min_threshold(self):
        strategy = SizeTieredCompaction(min_threshold=4)
        tables = [SSTable([(f"k{i}", Versioned(i + 1, fields("x")))])
                  for i in range(3)]
        assert strategy.plan(tables) is None

    def test_plan_merges_similar_sizes(self):
        strategy = SizeTieredCompaction(min_threshold=4)
        tables = [
            SSTable([(f"k{j:03d}", Versioned(i * 100 + j + 1, fields("x")))
                     for j in range(10)])
            for i in range(4)
        ]
        task = strategy.plan(tables)
        assert task is not None
        assert len(task.inputs) == 4
        assert task.read_bytes == sum(t.size_bytes for t in tables)
        assert task.write_bytes == task.output.size_bytes
        assert task.io_bytes == task.read_bytes + task.write_bytes

    def test_plan_skips_dissimilar_sizes(self):
        strategy = SizeTieredCompaction(min_threshold=4)
        small = [SSTable([(f"s{i}", Versioned(i + 1, fields("s")))])
                 for i in range(3)]
        big = SSTable([(f"b{j:04d}", Versioned(100 + j, fields("b")))
                       for j in range(1000)])
        assert strategy.plan(small + [big]) is None
