"""Unit and property tests for the skip list."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.skiplist import SkipList


class TestBasics:
    def test_empty(self):
        sl = SkipList()
        assert len(sl) == 0
        assert sl.get("a") is None
        assert sl.first_key() is None
        assert sl.last_key() is None
        assert "a" not in sl

    def test_put_get(self):
        sl = SkipList()
        assert sl.put("b", 2) is True
        assert sl.put("a", 1) is True
        assert sl.put("b", 20) is False  # update
        assert sl.get("a") == 1
        assert sl.get("b") == 20
        assert len(sl) == 2
        assert "a" in sl

    def test_setdefault_inserts_only_when_absent(self):
        sl = SkipList()
        assert sl.setdefault("a", 1) == 1
        assert sl.setdefault("a", 2) == 1  # present: value kept
        assert sl.get("a") == 1
        assert len(sl) == 1

    def test_setdefault_builds_the_same_list_as_put(self):
        by_put, by_setdefault = SkipList(seed=3), SkipList(seed=3)
        keys = [f"k{(i * 7919) % 500:03d}" for i in range(700)]  # repeats
        for key in keys:
            by_put.put(key, key)
            by_setdefault.setdefault(key, key)

        def towers(sl):
            node, out = sl._head.forward[0], []
            while node is not None:
                out.append((node.key, len(node.forward)))
                node = node.forward[0]
            return out

        assert towers(by_put) == towers(by_setdefault)

    def test_get_default(self):
        sl = SkipList()
        assert sl.get("missing", default="fallback") == "fallback"

    def test_items_sorted(self):
        sl = SkipList()
        keys = ["delta", "alpha", "echo", "charlie", "bravo"]
        for i, key in enumerate(keys):
            sl.put(key, i)
        assert [k for k, __ in sl.items()] == sorted(keys)

    def test_remove(self):
        sl = SkipList()
        sl.put("a", 1)
        sl.put("b", 2)
        assert sl.remove("a") is True
        assert sl.remove("a") is False
        assert sl.get("a") is None
        assert len(sl) == 1

    def test_first_last(self):
        sl = SkipList()
        for key in ["m", "a", "z"]:
            sl.put(key, key)
        assert sl.first_key() == "a"
        assert sl.last_key() == "z"

    def test_scan(self):
        sl = SkipList()
        for i in range(100):
            sl.put(f"k{i:03d}", i)
        result = sl.scan("k050", 5)
        assert result == [(f"k{i:03d}", i) for i in range(50, 55)]

    def test_scan_past_end(self):
        sl = SkipList()
        sl.put("a", 1)
        assert sl.scan("z", 5) == []

    def test_scan_zero_count(self):
        sl = SkipList()
        sl.put("a", 1)
        assert sl.scan("a", 0) == []

    def test_scan_inclusive_start(self):
        sl = SkipList()
        sl.put("a", 1)
        sl.put("b", 2)
        assert sl.scan("a", 10) == [("a", 1), ("b", 2)]

    def test_deterministic_with_seed(self):
        def build():
            sl = SkipList(seed=3)
            for i in range(200):
                sl.put(i, i)
            return sl._level

        assert build() == build()


class TestBulk:
    def test_large_random_workload_matches_dict(self):
        sl = SkipList(seed=1)
        model = {}
        rng = random.Random(9)
        for __ in range(5000):
            key = rng.randrange(800)
            action = rng.random()
            if action < 0.6:
                sl.put(key, key * 2)
                model[key] = key * 2
            elif action < 0.8:
                assert sl.get(key) == model.get(key)
            else:
                assert sl.remove(key) == (model.pop(key, None) is not None)
        assert len(sl) == len(model)
        assert dict(sl.items()) == model


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("abcdefghij"),
                          st.integers(0, 100))))
def test_property_matches_dict(operations):
    sl = SkipList(seed=0)
    model = {}
    for key, value in operations:
        sl.put(key, value)
        model[key] = value
    assert sorted(model.items()) == list(sl.items())
    for key in "abcdefghij":
        assert sl.get(key) == model.get(key)


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(0, 1000)), st.integers(0, 1000),
       st.integers(1, 20))
def test_property_scan_matches_sorted_slice(keys, start, count):
    sl = SkipList(seed=0)
    for key in keys:
        sl.put(key, key)
    expected = [(k, k) for k in sorted(keys) if k >= start][:count]
    assert sl.scan(start, count) == expected
