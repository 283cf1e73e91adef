"""Unit and property tests for the sorted key index.

:class:`~repro.storage.sortedkeys.SortedKeys` took the place of the skip
list this module is named for, as the ordered index of memtables, Redis
and VoltDB.  Each test drives it as those owners do — a dict of rows, an
index made at the first ordered read and told of every key that joins
or leaves the dict after that — and checks it against the dict and a
slice of its sorted items.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.sortedkeys import SortedKeys

_MISSING = object()


class _Owner:
    """A dict of rows and its index, kept as the stores keep theirs."""

    def __init__(self):
        self.rows = {}
        self.index = None

    def put(self, key, value):
        if key not in self.rows and self.index is not None:
            self.index.add(key)
        self.rows[key] = value

    def remove(self, key) -> bool:
        if self.rows.pop(key, _MISSING) is _MISSING:
            return False
        if self.index is not None:
            self.index.remove(key)
        return True

    def ordered(self) -> SortedKeys:
        if self.index is None:
            self.index = SortedKeys(self.rows)
        return self.index


def _sorted_slice(rows: dict, start_key, count: int) -> list:
    return [(key, value) for key, value in sorted(rows.items())
            if key >= start_key][:max(count, 0)]


class TestBasics:
    def test_empty(self):
        index = SortedKeys({})
        assert list(index.items()) == []
        assert index.scan("a", 5) == []
        assert index.keys_from("a", 5) == []

    def test_put_get(self):
        owner = _Owner()
        owner.put("b", 2)
        owner.ordered()
        owner.put("a", 1)
        owner.put("b", 20)  # an upsert: the index reads the dict's value
        assert list(owner.ordered().items()) == [("a", 1), ("b", 20)]

    def test_items_sorted(self):
        owner = _Owner()
        keys = ["delta", "alpha", "echo", "charlie", "bravo"]
        for i, key in enumerate(keys):
            owner.put(key, i)
        assert [k for k, __ in owner.ordered().items()] == sorted(keys)

    def test_remove(self):
        owner = _Owner()
        owner.put("a", 1)
        owner.put("b", 2)
        owner.ordered()
        assert owner.remove("a") is True
        assert owner.remove("a") is False
        assert list(owner.ordered().items()) == [("b", 2)]

    def test_a_remove_before_the_first_scan_sorts_nothing(self):
        owner = _Owner()
        owner.put("a", 1)
        owner.put("b", 2)
        assert owner.remove("a") is True
        assert owner.index is None
        assert owner.ordered().scan("", 5) == [("b", 2)]

    def test_scan(self):
        owner = _Owner()
        for i in range(100):
            owner.put(f"k{i:03d}", i)
        result = owner.ordered().scan("k050", 5)
        assert result == [(f"k{i:03d}", i) for i in range(50, 55)]
        assert owner.ordered().keys_from("k050", 5) == [
            key for key, __ in result]

    def test_scan_past_end(self):
        owner = _Owner()
        owner.put("a", 1)
        assert owner.ordered().scan("z", 5) == []

    def test_scan_zero_count(self):
        owner = _Owner()
        owner.put("a", 1)
        assert owner.ordered().scan("a", 0) == []

    def test_scan_negative_count(self):
        owner = _Owner()
        for key in "abc":
            owner.put(key, key)
        # A negative slice end would otherwise drop keys off the end.
        assert owner.ordered().scan("", -1) == []
        assert owner.ordered().keys_from("", -2) == []

    def test_scan_inclusive_start(self):
        owner = _Owner()
        owner.put("a", 1)
        owner.put("b", 2)
        assert owner.ordered().scan("a", 10) == [("a", 1), ("b", 2)]


class TestBulk:
    def test_large_random_workload_matches_dict(self):
        owner = _Owner()
        model = {}
        rng = random.Random(9)
        for step in range(5000):
            key = rng.randrange(800)
            action = rng.random()
            if step == 1000:
                owner.ordered()
            if action < 0.6:
                owner.put(key, key * 2)
                model[key] = key * 2
            elif action < 0.8:
                count = rng.randrange(-2, 30)
                assert owner.ordered().scan(key, count) == _sorted_slice(
                    model, key, count)
            else:
                assert owner.remove(key) == (model.pop(key, None) is not None)
        assert list(owner.ordered().items()) == sorted(model.items())


#: An op on a small key space, so keys repeat: a put, a delete, a scan
#: (which makes the index if nothing did before) or a look at the order.
_OPS = st.lists(st.one_of(
    st.tuples(st.just("put"), st.sampled_from("abcdefghij"),
              st.integers(0, 100)),
    st.tuples(st.just("delete"), st.sampled_from("abcdefghijk")),
    st.tuples(st.just("scan"), st.sampled_from("`abcdefghijkz"),
              st.integers(-3, 12)),
    st.tuples(st.just("items")),
), max_size=80)


@settings(max_examples=200, deadline=None)
@given(_OPS)
def test_property_matches_dict(operations):
    """Interleaved puts, deletes and scans, before and after the sort."""
    owner = _Owner()
    model = {}
    for op in operations:
        kind = op[0]
        if kind == "put":
            owner.put(op[1], op[2])
            model[op[1]] = op[2]
        elif kind == "delete":
            assert owner.remove(op[1]) == (model.pop(op[1], None)
                                           is not None)
        elif kind == "scan":
            assert owner.ordered().scan(op[1], op[2]) == _sorted_slice(
                model, op[1], op[2])
        else:
            assert list(owner.ordered().items()) == sorted(model.items())
    assert owner.rows == model
    assert list(owner.ordered().items()) == sorted(model.items())


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 1000)), st.integers(-5, 1100),
       st.integers(-3, 20), st.booleans())
def test_property_scan_matches_sorted_slice(keys, start, count, sort_first):
    """Repeated keys, any start (past the end too) and any count; the
    index made before the puts or after them."""
    owner = _Owner()
    if sort_first:
        owner.ordered()
    for key in keys:
        owner.put(key, -key)
    expected = _sorted_slice(owner.rows, start, count)
    assert owner.ordered().scan(start, count) == expected
    assert owner.ordered().keys_from(start, count) == [k for k, __ in expected]
