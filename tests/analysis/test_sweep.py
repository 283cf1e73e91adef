"""Unit tests for the sweep API."""

import pytest

from repro.analysis.sweep import SweepSpec, run_sweep
from repro.orchestrator.store import ResultStore
from repro.ycsb.workload import WORKLOAD_R, WORKLOAD_RS, WORKLOAD_W


TINY = dict(records_per_node=1200, measured_ops=300, warmup_ops=50)


class TestSweepSpec:
    def test_point_count(self):
        spec = SweepSpec(stores=("redis", "mysql"),
                         workloads=(WORKLOAD_R, WORKLOAD_W),
                         node_counts=(1, 2), **TINY)
        assert len(spec) == 8
        assert len(list(spec.points())) == 8


class TestRunSweep:
    def test_collects_all_points(self):
        spec = SweepSpec(stores=("redis",), workloads=(WORKLOAD_R,),
                         node_counts=(1, 2), **TINY)
        sweep = run_sweep(spec)
        assert len(sweep.results) == 2
        assert sweep.skipped == []
        assert {row["nodes"] for row in sweep.rows()} == {1, 2}

    def test_skips_unsupported_combinations(self):
        spec = SweepSpec(stores=("voldemort",), workloads=(WORKLOAD_RS,),
                         node_counts=(1,), **TINY)
        sweep = run_sweep(spec)
        assert sweep.results == []
        assert len(sweep.skipped) == 1
        store, reason = sweep.skipped[0]
        assert store == "voldemort"
        assert "scans" in reason

    def test_unknown_store_is_an_error_not_a_skip(self):
        spec = SweepSpec(stores=("redis", "mongodb"),
                         workloads=(WORKLOAD_R,), node_counts=(1,), **TINY)
        with pytest.raises(ValueError, match="unknown store 'mongodb'"):
            run_sweep(spec)

    def test_invalid_scale_is_an_error_not_a_skip(self):
        spec = SweepSpec(stores=("redis",), workloads=(WORKLOAD_R,),
                         node_counts=(1,), records_per_node=0)
        with pytest.raises(ValueError, match="records_per_node"):
            run_sweep(spec)

    def test_series_and_best_by(self):
        spec = SweepSpec(stores=("redis", "voltdb"),
                         workloads=(WORKLOAD_R,), node_counts=(1, 2),
                         **TINY)
        sweep = run_sweep(spec)
        series = sweep.series("redis", "R")
        assert [n for n, __ in series] == [1, 2]
        best = sweep.best_by("R", 2)
        assert best is not None
        assert best.config.store in ("redis", "voltdb")
        assert sweep.best_by("W", 2) is None

    def test_progress_callback(self):
        calls = []
        spec = SweepSpec(stores=("redis",), workloads=(WORKLOAD_R,),
                         node_counts=(1,), **TINY)
        sweep = run_sweep(spec, progress=lambda *args: calls.append(args))
        assert len(calls) == 1
        done, total, outcome = calls[0]
        assert (done, total) == (1, 1)
        assert outcome.result is sweep.results[0]

    def test_uses_cache(self, tmp_path):
        """Reuse across two calls comes from ``store=``."""
        store = ResultStore(tmp_path)
        spec = SweepSpec(stores=("redis",), workloads=(WORKLOAD_R,),
                         node_counts=(1, 2), **TINY)
        outcomes = []

        def blobs():
            return {path: (path.stat().st_mtime_ns, path.read_bytes())
                    for path in store.root.glob("objects/*/*.json")}

        first = run_sweep(spec, store=store)
        written = blobs()
        assert len(written) == 2
        second = run_sweep(
            spec, store=store,
            progress=lambda done, total, outcome: outcomes.append(outcome))
        assert [outcome.cached for outcome in outcomes] == [True, True]
        assert blobs() == written
        assert second.rows() == first.rows()
