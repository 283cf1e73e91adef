"""Tests for run-metadata provenance stamping."""

import json
from dataclasses import dataclass, field

import repro
from repro.analysis.export import figure_to_json
from repro.analysis.provenance import config_fingerprint, provenance, stamp
from repro.analysis.sweep import SweepResult, SweepSpec
from repro.faults import FaultSchedule
from tests.analysis.test_export import sample
from repro.ycsb.runner import BenchmarkConfig
from repro.ycsb.workload import WORKLOAD_R, Workload


@dataclass(frozen=True)
class FakeConfig:
    store: str = "redis"
    n_nodes: int = 4
    seed: int = 42
    store_kwargs: dict = field(default_factory=dict)


class TestFingerprint:
    def test_stable_across_equal_configs(self):
        assert (config_fingerprint(FakeConfig())
                == config_fingerprint(FakeConfig()))

    def test_sensitive_to_any_field(self):
        base = config_fingerprint(FakeConfig())
        assert config_fingerprint(FakeConfig(n_nodes=8)) != base
        assert config_fingerprint(FakeConfig(seed=1)) != base
        assert config_fingerprint(
            FakeConfig(store_kwargs={"rf": 3})) != base

    def test_dict_key_order_does_not_matter(self):
        a = FakeConfig(store_kwargs={"a": 1, "b": 2})
        b = FakeConfig(store_kwargs={"b": 2, "a": 1})
        assert config_fingerprint(a) == config_fingerprint(b)

    def test_callables_hash_by_qualified_name(self):
        first = config_fingerprint({"fn": config_fingerprint})
        second = config_fingerprint({"fn": config_fingerprint})
        assert first == second

    def test_two_schedules_that_differ_only_in_kind_differ(self):
        # An enum used to reduce to its class name, so these two gave one
        # BenchmarkConfig identity, memo entry and provenance hash.
        slow = FaultSchedule().slow_disk("server-0", at=1, factor=2)
        zombie = FaultSchedule().zombie("server-0", at=1, slowdown=2)
        assert config_fingerprint(slow) != config_fingerprint(zombie)
        assert config_fingerprint(FaultSchedule().crash("server-0", at=1)) \
            != config_fingerprint(FaultSchedule().restart("server-0", at=1))
        keys = {BenchmarkConfig(store="redis", workload=WORKLOAD_R,
                                n_nodes=1, fault_schedule=schedule).content_key()
                for schedule in (slow, zombie)}
        assert len(keys) == 2

    def test_short_hex(self):
        digest = config_fingerprint(FakeConfig())
        assert len(digest) == 16
        int(digest, 16)  # valid hex


class TestStamp:
    def test_contents(self):
        meta = provenance(FakeConfig())
        assert meta == {
            "package_version": repro.__version__,
            "config_hash": config_fingerprint(FakeConfig()),
            "seed": 42,
        }

    def test_explicit_seed_overrides_config(self):
        assert provenance(FakeConfig(), seed=7)["seed"] == 7

    def test_no_wall_clock_timestamp(self):
        # Byte-determinism: the stamp must not vary between runs.
        meta = provenance(FakeConfig())
        assert not any("time" in key or "date" in key for key in meta)

    def test_stamp_adds_key_in_place(self):
        payload = {"rows": []}
        assert stamp(payload, FakeConfig()) is payload
        assert payload["provenance"]["seed"] == 42


class TestExportsCarryProvenance:
    def test_figure_json(self):
        payload = json.loads(figure_to_json(sample(), config=FakeConfig()))
        assert payload["provenance"]["config_hash"] == config_fingerprint(
            FakeConfig())
        assert payload["provenance"]["seed"] == 42

    def test_figure_json_without_config_still_names_version(self):
        payload = json.loads(figure_to_json(sample()))
        assert payload["provenance"] == {
            "package_version": repro.__version__}

    def test_sweep_json(self):
        spec = SweepSpec(stores=("redis",),
                         workloads=(Workload(name="R",
                                             read_proportion=1.0),),
                         node_counts=(2,), seed=9)
        payload = SweepResult(spec, [], []).to_dict()
        assert payload["provenance"]["seed"] == 9
        assert payload["provenance"]["config_hash"] == config_fingerprint(
            spec)
        assert payload["rows"] == []
        # Same spec, same payload.
        assert SweepResult(spec, [], []).to_dict() == payload
