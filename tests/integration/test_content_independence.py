"""Field bytes are content-free: only their lengths reach the simulation.

The record generator was made cheap on the strength of one argument: no
store, cost model or statistic looks at what a field *says*, only at how
long it is, so its characters may come from anywhere.  This test keeps
that argument honest.  It swaps the generator's one content seam, the
table of shared field values, for constant strings of the same lengths
and requires the serialised result of a point — loads, reads, inserts,
scans and the on-disk footprint — to stay byte-identical for every
store.  A change that lets results
depend on field bytes (compression, value hashing, content-defined
chunking) fails here and must revisit the data-set definition first.
"""

import json
from dataclasses import replace

import pytest

from repro.orchestrator import result_to_dict
from repro.sim.cluster import CLUSTER_M
from repro.stores.registry import STORE_NAMES, store_class
from repro.ycsb import generator
from repro.ycsb.runner import BenchmarkConfig, run_config
from repro.ycsb.workload import WORKLOADS

#: Few connections keep the stores' minimum measurement windows small.
SMALL_M = replace(CLUSTER_M, connections_per_node=4)


def _payload(store_name: str) -> str:
    workload = WORKLOADS["RSW" if store_class(store_name).supports_scans
                         else "RW"]
    config = BenchmarkConfig(store=store_name, workload=workload, n_nodes=2,
                             cluster_spec=SMALL_M, records_per_node=400,
                             measured_ops=600, warmup_ops=100, seed=13)
    result = run_config(config)
    assert result.stats.operations > 0
    return json.dumps(result_to_dict(result), sort_keys=True)


def _constant_table(length: int) -> tuple[str, ...]:
    return (("x17_3qqqqq" * (length // 10 + 1))[:length],) * 256


@pytest.mark.parametrize("store_name", STORE_NAMES)
def test_results_do_not_depend_on_field_content(store_name, monkeypatch):
    baseline = _payload(store_name)
    monkeypatch.setattr(generator, "_value_table", _constant_table)
    assert generator.generate_field_value(3, 1, 10) == "x17_3qqqqq"
    # The one seam: every field of every record comes through it.
    assert set(generator.generate_record(3)[1]) == {"x17_3qqqqq"}
    assert _payload(store_name) == baseline
