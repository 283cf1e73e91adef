"""Unit tests for deterministic RNG streams."""

from repro.sim.rng import RngRegistry


class TestRngRegistry:
    def test_same_name_same_stream(self):
        registry = RngRegistry(7)
        assert registry.stream("a") is registry.stream("a")

    def test_streams_are_reproducible(self):
        first = [RngRegistry(7).stream("x").random() for __ in range(3)]
        second = [RngRegistry(7).stream("x").random() for __ in range(3)]
        assert first == second

    def test_names_are_independent(self):
        registry = RngRegistry(7)
        a = [registry.stream("a").random() for __ in range(5)]
        b = [registry.stream("b").random() for __ in range(5)]
        assert a != b

    def test_seed_changes_streams(self):
        a = RngRegistry(1).stream("x").random()
        b = RngRegistry(2).stream("x").random()
        assert a != b
