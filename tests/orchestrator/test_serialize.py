"""Config/result round-tripping and the single-source-of-truth key."""

import dataclasses
import json

import pytest

from repro.analysis.cache import ResultCache
from repro.faults.schedule import FaultSchedule
from repro.orchestrator.serialize import (UnportableResultError,
                                          histogram_from_dict,
                                          histogram_to_dict, result_from_dict,
                                          result_to_dict)
from repro.sim.cluster import CLUSTER_D
from repro.stores.base import OpType, RetryPolicy
from repro.ycsb.runner import (BenchmarkConfig, BenchmarkResult,
                               UnportableConfigError)
from repro.ycsb.stats import LatencyHistogram, RunStats
from repro.ycsb.workload import WORKLOAD_R, WORKLOAD_RW, Workload
from tests.test_serialisation_golden import INSTANCES, OVERLOAD_POLICY

#: Every dataclass with both ``to_dict`` and ``from_dict`` — the two a
#: pool worker rebuilds — each field off its default (the config's two
#: fingerprint-only fields apart: a config that sets them does not
#: round-trip, by contract).
ROUND_TRIPPERS = [
    dataclasses.replace(INSTANCES["BenchmarkConfig"],
                        overload=OVERLOAD_POLICY,
                        store_kwargs={"replication_factor": 3,
                                      "tuning": {"levels": [1, 2]}}),
    INSTANCES["OverloadPolicy"],
]


def make_config(**overrides):
    kwargs = dict(store="redis", workload=WORKLOAD_R, n_nodes=2)
    kwargs.update(overrides)
    return BenchmarkConfig(**kwargs)


def make_result(config=None, reads=25, inserts=5):
    """A small, fully synthetic result (no simulation run needed)."""
    config = config or make_config()
    stats = RunStats(operations=reads + inserts, errors=1,
                     started_at=0.25, finished_at=1.75)
    for i in range(reads):
        stats.histogram(OpType.READ).record(0.001 * (i + 1), error=(i == 0))
    for i in range(inserts):
        stats.histogram(OpType.INSERT).record(0.002 * (i + 1))
    return BenchmarkResult(config=config, stats=stats, connections=16,
                           store_errors=2, disk_bytes_per_server=[123, 456])


class TestConfigRoundTrip:
    def test_identity(self):
        config = make_config(records_per_node=777, seed=7,
                             target_throughput=1234.5,
                             store_kwargs={"replication_factor": 3})
        rebuilt = BenchmarkConfig.from_dict(config.to_dict())
        assert rebuilt == config
        assert rebuilt.content_hash() == config.content_hash()
        assert rebuilt.content_key() == config.content_key()

    def test_cluster_d_and_custom_workload(self):
        workload = Workload("X", read_proportion=0.6, scan_proportion=0.3,
                            insert_proportion=0.1, scan_length=25,
                            distribution="zipfian")
        config = make_config(workload=workload, cluster_spec=CLUSTER_D)
        rebuilt = BenchmarkConfig.from_dict(config.to_dict())
        assert rebuilt == config
        assert rebuilt.cluster_spec.node.disk == CLUSTER_D.node.disk
        assert rebuilt.workload.scan_length == 25

    def test_payload_is_json_ready(self):
        for record in [make_config(), *ROUND_TRIPPERS]:
            text = json.dumps(record.to_dict(), sort_keys=True)
            rebuilt = type(record).from_dict(json.loads(text))
            assert rebuilt == record
            assert json.dumps(rebuilt.to_dict(), sort_keys=True) == text

    def test_missing_defaulted_key_takes_the_default(self):
        """A payload written before a field existed still parses."""
        for record in ROUND_TRIPPERS:
            for field in dataclasses.fields(record):
                if field.default is not dataclasses.MISSING:
                    default = field.default
                elif field.default_factory is not dataclasses.MISSING:
                    default = field.default_factory()
                else:
                    continue
                payload = record.to_dict()
                del payload[field.name]
                assert type(record).from_dict(payload) == dataclasses.replace(
                    record, **{field.name: default}), (
                    f"{type(record).__name__}.{field.name}")

    def test_unknown_format_rejected(self):
        payload = make_config().to_dict()
        payload["format"] = 999
        with pytest.raises(ValueError, match="format"):
            BenchmarkConfig.from_dict(payload)

    def test_fault_schedule_is_unportable(self):
        schedule = FaultSchedule().crash("server-0", at=1.0)
        config = make_config(fault_schedule=schedule)
        assert not config.is_portable
        with pytest.raises(UnportableConfigError):
            BenchmarkConfig.from_dict(config.to_dict())

    def test_retry_is_unportable(self):
        config = make_config(retry=RetryPolicy(max_attempts=5))
        assert not config.is_portable
        with pytest.raises(UnportableConfigError):
            BenchmarkConfig.from_dict(config.to_dict())


class TestContentKeySingleSource:
    """The cache key and content hash can never silently diverge."""

    def test_cache_key_delegates_to_config(self):
        """Two configs equal in ``content_key()`` share one memo entry."""
        calls = []
        cache = ResultCache(runner=lambda config: calls.append(config)
                            or make_result(config=config))
        first = make_config(store_kwargs={"replication_factor": 2})
        twin = BenchmarkConfig.from_dict(first.to_dict())
        assert twin is not first
        assert twin.content_key() == first.content_key()
        assert cache.get(first) is cache.get(twin)
        assert len(calls) == 1
        cache.get(make_config(seed=43))
        assert len(calls) == 2

    def test_every_field_appears_in_to_dict(self):
        """Adding a config field without serialising it must fail here."""
        for record in [make_config(), *ROUND_TRIPPERS]:
            payload = record.to_dict()
            for field in dataclasses.fields(record):
                assert field.name in payload, (
                    f"{type(record).__name__}.{field.name} is missing from "
                    "to_dict(); the cache key, content hash and wire form "
                    "all derive from to_dict(), so every field must appear "
                    "there")

    def test_a_new_field_needs_one_line(self):
        """Declared in the dataclass and nowhere else, a field is in the
        payload, the key and the hash, and survives the wire."""
        @dataclasses.dataclass(frozen=True)
        class Extended(BenchmarkConfig):
            think_time_s: float = 0.0

        base = Extended(store="redis", workload=WORKLOAD_R, n_nodes=2)
        other = dataclasses.replace(base, think_time_s=0.5)
        assert other.to_dict()["think_time_s"] == 0.5
        assert other.content_key() != base.content_key()
        assert other.content_hash() != base.content_hash()
        assert Extended.from_dict(other.to_dict()) == other
        assert Extended.from_dict(make_config().to_dict()) == base

    @pytest.mark.parametrize("overrides", [
        {"store": "mysql"},
        {"workload": WORKLOAD_RW},
        {"n_nodes": 3},
        {"cluster_spec": CLUSTER_D},
        {"records_per_node": 999},
        {"measured_ops": 123},
        {"warmup_ops": 7},
        {"seed": 43},
        {"target_throughput": 10.0},
        {"store_kwargs": {"replication_factor": 2}},
        {"duration_s": 5.0},
        {"trace_sample_every": 4},
        {"metrics_interval_s": 0.5},
        {"sustained_tolerance": 0.5},
    ])
    def test_key_and_hash_distinguish_together(self, overrides):
        base = make_config()
        other = make_config(**overrides)
        assert base.content_key() != other.content_key()
        assert base.content_hash() != other.content_hash()

    def test_equal_configs_share_key_and_hash(self):
        a = make_config(store_kwargs={"b": 2, "a": 1})
        b = make_config(store_kwargs={"a": 1, "b": 2})
        assert a.content_key() == b.content_key()
        assert a.content_hash() == b.content_hash()

    def test_fault_schedules_distinguish_key(self):
        """The key covers chaos config too (the old tuple key did not)."""
        quiet = make_config()
        chaotic = make_config(
            fault_schedule=FaultSchedule().crash("server-0", at=1.0))
        assert quiet.content_key() != chaotic.content_key()


class TestHistogramRoundTrip:
    def test_empty(self):
        rebuilt = histogram_from_dict(histogram_to_dict(LatencyHistogram()))
        assert rebuilt.count == 0
        assert rebuilt.mean == 0.0
        assert rebuilt.min == 0.0

    def test_preserves_percentiles_and_stats(self):
        histogram = LatencyHistogram()
        for i in range(200):
            histogram.record(1e-5 * (i + 1), error=(i % 50 == 0))
        rebuilt = histogram_from_dict(histogram_to_dict(histogram))
        assert rebuilt.count == histogram.count
        assert rebuilt.total == histogram.total
        assert rebuilt.min == histogram.min
        assert rebuilt.max == histogram.max
        assert rebuilt.errors == histogram.errors
        for p in (50, 95, 99, 99.9):
            assert rebuilt.percentile(p) == histogram.percentile(p)


class TestResultRoundTrip:
    def test_row_and_metrics_survive(self):
        result = make_result()
        rebuilt = result_from_dict(result_to_dict(result))
        assert rebuilt.row() == result.row()
        assert rebuilt.throughput_ops == result.throughput_ops
        assert rebuilt.connections == 16
        assert rebuilt.store_errors == 2
        assert rebuilt.disk_bytes_per_server == [123, 456]

    def test_reserialisation_is_byte_identical(self):
        result = make_result()
        payload = result_to_dict(result)
        text = json.dumps(payload, sort_keys=True)
        rebuilt = result_from_dict(json.loads(text))
        assert json.dumps(result_to_dict(rebuilt), sort_keys=True) == text

    def test_lazy_histogram_creation_does_not_change_bytes(self):
        """row() materialises empty histograms; bytes must not care."""
        result = make_result()
        before = json.dumps(result_to_dict(result), sort_keys=True)
        result.row()  # touches scan_latency -> creates an empty histogram
        after = json.dumps(result_to_dict(result), sort_keys=True)
        assert before == after

    def test_chaos_result_is_unportable(self):
        result = make_result()
        result.fault_log = [(1.0, "crash server-0")]
        with pytest.raises(UnportableResultError, match="fault_log"):
            result_to_dict(result)

    def test_unportable_config_is_unportable_result(self):
        config = make_config(retry=RetryPolicy())
        with pytest.raises(UnportableResultError):
            result_to_dict(make_result(config=config))
