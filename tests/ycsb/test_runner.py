"""Unit and integration tests for the benchmark runner."""

import pytest

from repro.sim.cluster import CLUSTER_D, CLUSTER_M
from repro.stores.base import OpType
from repro.ycsb.runner import (
    BenchmarkConfig,
    run_benchmark,
    run_config,
    scaled_spec,
)
from repro.ycsb.workload import WORKLOAD_R, WORKLOAD_RS, WORKLOAD_RW


SMALL = dict(records_per_node=2000, measured_ops=400, warmup_ops=100)


class TestScaledSpec:
    def test_scales_ram_with_records(self):
        spec = scaled_spec(CLUSTER_M, 100_000, 10_000_000)
        assert spec.node.ram_bytes == pytest.approx(
            CLUSTER_M.node.ram_bytes * 0.01)

    def test_never_upscales(self):
        spec = scaled_spec(CLUSTER_M, 20_000_000, 10_000_000)
        assert spec.node.ram_bytes == CLUSTER_M.node.ram_bytes

    def test_keeps_cache_fraction(self):
        spec = scaled_spec(CLUSTER_D, 10_000, 1_000_000)
        assert spec.node.cache_fraction == CLUSTER_D.node.cache_fraction


class TestConfigValidation:
    def test_rejects_zero_nodes(self):
        with pytest.raises(ValueError):
            BenchmarkConfig("redis", WORKLOAD_R, 0)

    def test_rejects_zero_records(self):
        with pytest.raises(ValueError):
            BenchmarkConfig("redis", WORKLOAD_R, 1, records_per_node=0)

    def test_scan_workload_rejected_for_voldemort(self):
        with pytest.raises(ValueError, match="scans"):
            run_benchmark("voldemort", WORKLOAD_RS, 1, **SMALL)


class TestEndToEnd:
    @pytest.mark.parametrize("store", ["cassandra", "hbase", "voldemort",
                                       "redis", "voltdb", "mysql"])
    def test_every_store_completes_workload_r(self, store):
        result = run_benchmark(store, WORKLOAD_R, 2, **SMALL)
        assert result.throughput_ops > 0
        assert result.stats.operations >= 400
        assert result.read_latency.count > 0
        assert result.read_latency.mean > 0
        assert result.stats.errors == 0

    def test_result_row_fields(self):
        result = run_benchmark("redis", WORKLOAD_R, 1, **SMALL)
        row = result.row()
        assert row["store"] == "redis"
        assert row["workload"] == "R"
        assert row["nodes"] == 1
        assert row["cluster"] == "M"
        assert row["throughput_ops"] > 0

    def test_write_latency_merges_inserts_and_updates(self):
        result = run_benchmark("redis", WORKLOAD_RW, 1, **SMALL)
        merged = result.write_latency
        assert merged.count == result.stats.histogram(OpType.INSERT).count

    def test_throttled_run_hits_target(self):
        free = run_benchmark("redis", WORKLOAD_R, 1, **SMALL)
        target = free.throughput_ops * 0.5
        bounded = run_benchmark("redis", WORKLOAD_R, 1,
                                target_throughput=target, **SMALL)
        assert bounded.throughput_ops == pytest.approx(target, rel=0.1)
        assert bounded.read_latency.mean < free.read_latency.mean

    def test_deterministic_given_seed(self):
        first = run_benchmark("cassandra", WORKLOAD_R, 1, seed=7, **SMALL)
        second = run_benchmark("cassandra", WORKLOAD_R, 1, seed=7, **SMALL)
        assert first.throughput_ops == second.throughput_ops
        assert first.read_latency.mean == second.read_latency.mean

    def test_seed_changes_results(self):
        first = run_benchmark("cassandra", WORKLOAD_R, 1, seed=1, **SMALL)
        second = run_benchmark("cassandra", WORKLOAD_R, 1, seed=2, **SMALL)
        assert first.throughput_ops != second.throughput_ops

    def test_cluster_d_runs(self):
        result = run_benchmark("voldemort", WORKLOAD_R, 2,
                               cluster_spec=CLUSTER_D,
                               paper_records_per_node=1_000_000, **SMALL)
        assert result.throughput_ops > 0

    def test_disk_usage_reported(self):
        result = run_benchmark("cassandra", WORKLOAD_R, 2, **SMALL)
        assert len(result.disk_bytes_per_server) == 2
        assert all(b > 0 for b in result.disk_bytes_per_server)

    def test_connections_respect_store_policy(self):
        result = run_benchmark("voldemort", WORKLOAD_R, 2, **SMALL)
        assert result.connections == 8  # 4 per node, reduced client pool
        result = run_benchmark("redis", WORKLOAD_R, 2, **SMALL)
        assert result.connections <= 128


def test_run_benchmark_runs_the_config_its_arguments_build():
    """``run_benchmark`` is ``run_config`` of the config its arguments
    name.  A config in hand goes to ``run_config``: ``run_benchmark``
    takes no ``config=`` whose point could disagree with its positional
    arguments."""
    from repro.orchestrator.serialize import result_to_dict

    small = dict(records_per_node=500, measured_ops=300, warmup_ops=50,
                 seed=3)
    config = BenchmarkConfig(store="voldemort", workload=WORKLOAD_RW,
                             n_nodes=1, **small)
    assert (result_to_dict(run_benchmark("voldemort", WORKLOAD_RW, 1,
                                         **small))
            == result_to_dict(run_config(config)))
    with pytest.raises(TypeError, match="config"):
        run_benchmark("redis", WORKLOAD_RS, 4, config=config)
