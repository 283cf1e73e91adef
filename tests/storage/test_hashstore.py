"""Unit tests for the Redis-model hash store."""

import pytest

from repro.storage.encoding import redis_memory_per_record
from repro.storage.hashstore import HashStore
from repro.storage.record import APM_SCHEMA


def row(tag):
    return (str(tag)[:10].ljust(10, "x"),) * APM_SCHEMA.field_count


class TestHashStore:
    def test_hset_hgetall(self):
        store = HashStore()
        assert store.hset("k1", row(1))
        assert store.hgetall("k1") == row(1)
        assert store.hgetall("missing") is None
        assert len(store) == 1

    def test_hset_merges_fields(self):
        store = HashStore()
        store.hset("k", ("a" * 10, None, None, None, None))
        store.hset("k", (None, "b" * 10, None, None, None))
        assert store.hgetall("k") == ("a" * 10, "b" * 10, None, None, None)
        assert len(store) == 1

    def test_scan_via_index(self):
        store = HashStore()
        for i in range(20):
            store.hset(f"k{i:03d}", row(i))
        rows = store.scan("k005", 4)
        assert [k for k, __ in rows] == ["k005", "k006", "k007", "k008"]

    def test_zrange_from(self):
        store = HashStore()
        for key in ["c", "a", "b"]:
            store.hset(key, row(key))
        assert store.zrange_from("a", 10) == ["a", "b", "c"]

    def test_delete(self):
        store = HashStore()
        store.hset("k", row(1))
        assert store.delete("k")
        assert not store.delete("k")
        assert store.hgetall("k") is None
        assert store.zrange_from("a", 10) == []

    def test_memory_accounting(self):
        store = HashStore()
        per_record = redis_memory_per_record()
        store.hset("k" * 25, row(1))
        assert store.used_memory_bytes == pytest.approx(per_record)

    def test_oom_rejects_new_keys(self):
        limit = int(redis_memory_per_record() * 2.5)
        store = HashStore(max_memory_bytes=limit)
        assert store.hset("k1", row(1))
        assert store.hset("k2", row(2))
        assert not store.hset("k3", row(3))
        assert store.oom_errors == 1
        assert len(store) == 2

    def test_oom_still_allows_updates(self):
        limit = int(redis_memory_per_record() * 1.5)
        store = HashStore(max_memory_bytes=limit)
        store.hset("k1", row(1))
        assert store.is_full
        assert store.hset("k1", row(99))  # existing key: fine
        assert store.hgetall("k1") == row(99)

    def test_unlimited_by_default(self):
        store = HashStore()
        assert not store.is_full
