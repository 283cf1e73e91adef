"""Unit tests for benchmark result memoisation."""

from repro.analysis.cache import ResultCache
from repro.ycsb.runner import BenchmarkConfig
from repro.ycsb.workload import WORKLOAD_R, WORKLOAD_RW


class StubResult:
    def __init__(self, config):
        self.config = config


def stub_runner(config):
    stub_runner.calls += 1
    return StubResult(config)


class TestResultCache:
    def setup_method(self):
        stub_runner.calls = 0
        self.cache = ResultCache(runner=stub_runner)

    def test_miss_then_hit(self):
        config = BenchmarkConfig("redis", WORKLOAD_R, 2)
        first = self.cache.get(config)
        second = self.cache.get(config)
        assert first is second
        assert stub_runner.calls == 1
        assert self.cache.hits == 1
        assert self.cache.misses == 1

    def test_different_configs_are_distinct(self):
        self.cache.get(BenchmarkConfig("redis", WORKLOAD_R, 2))
        self.cache.get(BenchmarkConfig("redis", WORKLOAD_R, 4))
        self.cache.get(BenchmarkConfig("redis", WORKLOAD_RW, 2))
        self.cache.get(BenchmarkConfig("cassandra", WORKLOAD_R, 2))
        assert stub_runner.calls == 4

    def test_target_throughput_distinguishes(self):
        self.cache.get(BenchmarkConfig("redis", WORKLOAD_R, 2))
        self.cache.get(BenchmarkConfig("redis", WORKLOAD_R, 2,
                                       target_throughput=100.0))
        assert stub_runner.calls == 2

    def test_store_kwargs_distinguish(self):
        self.cache.get(BenchmarkConfig("mysql", WORKLOAD_R, 2))
        self.cache.get(BenchmarkConfig(
            "mysql", WORKLOAD_R, 2,
            store_kwargs={"binlog_enabled": False}))
        assert stub_runner.calls == 2

    def test_run_convenience_builds_config(self):
        result = self.cache.run("redis", WORKLOAD_R, 3,
                                records_per_node=123)
        assert result.config.records_per_node == 123
        assert result.config.n_nodes == 3

    def test_clear(self):
        config = BenchmarkConfig("redis", WORKLOAD_R, 2)
        self.cache.get(config)
        self.cache.clear()
        self.cache.get(config)
        assert stub_runner.calls == 2
