"""Shared fixtures for store tests."""

import pytest

from repro.keyspace import format_key
from repro.sim.cluster import CLUSTER_M, Cluster
from repro.storage.record import APM_SCHEMA


def make_records(count):
    """``(key, row)`` of the first ``count`` test records, what
    ``Store.load`` takes (deterministic)."""
    return [(format_key(i), (f"v{i % 97:02d}".ljust(10, "x"),)
             * APM_SCHEMA.field_count)
            for i in range(count)]


@pytest.fixture
def records():
    return make_records(500)


@pytest.fixture
def cluster4():
    return Cluster(CLUSTER_M, 4)


@pytest.fixture
def cluster1():
    return Cluster(CLUSTER_M, 1)


def run_op(store, op_generator):
    """Drive one session operation to completion, returning its value."""
    sim = store.sim
    return sim.run(until=sim.process(op_generator))
