"""Failure injection: error paths exercised end to end."""

import pytest

from repro.sim.cluster import CLUSTER_M, Cluster
from repro.stores.registry import create_store
from repro.ycsb.runner import run_benchmark
from repro.ycsb.workload import WORKLOAD_W, Workload
from tests.stores.conftest import make_records, run_op


class TestRedisOutOfMemory:
    def test_benchmark_counts_insert_errors_when_shards_fill(self):
        """A full Redis shard fails inserts; the run completes and the
        errors surface in the result (the paper's 12-node OOM story)."""
        # ample RAM: the scaled cluster keeps plenty of headroom
        result = run_benchmark("redis", WORKLOAD_W, 2,
                               records_per_node=1000,
                               paper_records_per_node=100_000,
                               measured_ops=800, warmup_ops=100)
        baseline_errors = result.store_errors + result.stats.errors
        assert result.throughput_ops > 0
        assert baseline_errors == 0
        # choked RAM: the default 10M-records-per-node scaling shrinks
        # node memory below the inserted data set
        choked = run_benchmark("redis", WORKLOAD_W, 2,
                               records_per_node=1000,
                               measured_ops=800, warmup_ops=100)
        choked_errors = choked.store_errors + choked.stats.errors
        assert choked_errors > 0
        assert choked.throughput_ops > 0  # degraded, not dead

    def test_reads_survive_a_full_shard(self):
        cluster = Cluster(CLUSTER_M, 1)
        store = create_store("redis", cluster)
        records = make_records(50)
        store.load(records)
        store.shards[0].max_memory_bytes = int(
            store.shards[0].used_memory_bytes)
        session = store.session(cluster.clients[0], 0)
        # writes of new keys fail ...
        assert not run_op(store, session.insert(*make_records(60)[-1]))
        # ... but reads and updates keep working
        assert run_op(store, session.read(records[0][0])) is not None
        assert run_op(store, session.update(
            records[0][0], ("x" * 10, None, None, None, None)))


class TestWorkloadValidation:
    def test_malformed_workload_rejected_at_definition(self):
        with pytest.raises(ValueError):
            Workload("bad", read_proportion=0.6, insert_proportion=0.6)

    def test_delete_heavy_workload_runs(self):
        """Deletes are not in Table 1 but the framework supports them."""
        workload = Workload("D", read_proportion=0.5,
                            delete_proportion=0.5)
        result = run_benchmark("cassandra", workload, 1,
                               records_per_node=1500, measured_ops=400,
                               warmup_ops=50)
        assert result.throughput_ops > 0

    def test_update_workload_runs_on_btree_store(self):
        workload = Workload("U", read_proportion=0.5,
                            update_proportion=0.5)
        result = run_benchmark("mysql", workload, 2,
                               records_per_node=1500, measured_ops=400,
                               warmup_ops=50)
        assert result.throughput_ops > 0
        assert result.stats.errors == 0
