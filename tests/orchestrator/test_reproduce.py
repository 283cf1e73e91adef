"""End-to-end orchestration: determinism, parallelism, crash resume.

The acceptance bar for the orchestrator: a grid run with ``jobs=N`` must
produce byte-identical artefacts to a sequential run, including when a
run is killed mid-grid and resumed.
"""

import contextlib
import json

import pytest

import repro.orchestrator.pool as pool_module
from repro.analysis.figures import BenchProfile
from repro.analysis.sweep import SweepSpec
from repro.orchestrator.manifest import RunManifest
from repro.orchestrator.pool import execute_grid
from repro.orchestrator.reproduce import (expand_figure_ids, reproduce,
                                          verify_figures)
from repro.orchestrator.store import ResultStore
from repro.ycsb.runner import BenchmarkConfig
from repro.ycsb.workload import WORKLOAD_R, WORKLOAD_RS, WORKLOAD_RW

# The acceptance grid: 2 stores x 2 workloads x 2 node counts, tiny.
GRID_SPEC = SweepSpec(
    stores=("redis", "mysql"), workloads=(WORKLOAD_R, WORKLOAD_RW),
    node_counts=(1, 2), records_per_node=150, measured_ops=80,
    warmup_ops=15,
)

TINY_PROFILE = BenchProfile(
    name="tinyrepro", scales=(1,), records_per_node=150,
    cluster_d_records=150, cluster_d_nodes=1, bounded_nodes=1,
    bounded_levels=(0.5,), measured_ops=80, warmup_ops=15,
)


def grid_configs():
    configs, skipped = GRID_SPEC.configs()
    assert len(configs) == 8 and not skipped
    return configs


def blob_bytes(store):
    """content hash -> raw blob bytes, for byte-level comparison."""
    out = {}
    for path in sorted(store.root.glob("objects/*/*.json")):
        out[path.stem] = path.read_bytes()
    return out


class CrashAfter(Exception):
    """Injected mid-grid failure."""


@contextlib.contextmanager
def grid_aborts_on(cause):
    """The grid's one failure contract: a ``RuntimeError`` naming the
    point, chained to what the worker raised."""
    with pytest.raises(RuntimeError, match=r"^grid point \S+ .* failed: "
                       ) as excinfo:
        yield excinfo
    assert isinstance(excinfo.value.__cause__, cause)


def crashing_runner(monkeypatch, crash_after):
    """Patch the worker runner to die after N successful points.

    Patches the module-level seam :func:`repro.orchestrator.pool.run_config`
    so both the inline path and forked workers see it.  Returns the list
    of executed configs (for counting).
    """
    monkeypatch.undo()  # drop any earlier crashing patch first
    real = pool_module.run_config
    executed = []

    def runner(config):
        if crash_after is not None and len(executed) >= crash_after:
            raise CrashAfter(
                f"injected crash after {crash_after} points")
        executed.append(config)
        return real(config)

    monkeypatch.setattr(pool_module, "run_config", runner)
    return executed


@pytest.fixture(scope="module")
def sequential_reference(tmp_path_factory):
    """The ground truth: the acceptance grid run sequentially, once."""
    root = tmp_path_factory.mktemp("seq")
    store = ResultStore(root / "store")
    outcomes = execute_grid(grid_configs(), jobs=1, store=store)
    assert len(outcomes) == 8
    assert all(not o.cached for o in outcomes)
    return blob_bytes(store)


class TestGridDeterminism:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_parallel_run_is_byte_identical(self, tmp_path, jobs,
                                            sequential_reference):
        store = ResultStore(tmp_path / "store")
        outcomes = execute_grid(grid_configs(), jobs=jobs, store=store)
        assert len(outcomes) == 8
        assert blob_bytes(store) == sequential_reference

    def test_outcomes_keep_input_order(self, tmp_path):
        configs = grid_configs()[:3]
        store = ResultStore(tmp_path / "store")
        outcomes = execute_grid(configs, jobs=2, store=store)
        assert [o.content_hash for o in outcomes] == [
            c.content_hash() for c in configs]

    def test_second_run_is_pure_cache_hit(self, tmp_path):
        configs = grid_configs()[:2]
        store = ResultStore(tmp_path / "store")
        execute_grid(configs, jobs=1, store=store)
        before = blob_bytes(store)
        outcomes = execute_grid(configs, jobs=1, store=store)
        assert all(o.cached for o in outcomes)
        assert blob_bytes(store) == before

    def test_another_versions_blob_is_rerun_and_overwritten(self, tmp_path):
        configs = grid_configs()[:2]
        store = ResultStore(tmp_path / "store")
        execute_grid(configs, jobs=1, store=store)
        before = blob_bytes(store)
        stale = store.path_for(configs[0])
        document = json.loads(stale.read_text())
        document["provenance"]["package_version"] = "0.0.0"
        stale.write_text(json.dumps(document))
        outcomes = execute_grid(configs, jobs=1, store=store)
        assert [o.cached for o in outcomes] == [False, True]
        assert blob_bytes(store) == before


class TestCrashResume:
    def test_resume_recomputes_only_unfinished_points(
            self, tmp_path, monkeypatch, sequential_reference):
        configs = grid_configs()
        store = ResultStore(tmp_path / "store")
        manifest = RunManifest.create(
            tmp_path / "run", figures=["grid"], profile_name="tiny",
            jobs=1, point_hashes=[c.content_hash() for c in configs])

        # The run dies after three points.
        crashing_runner(monkeypatch, crash_after=3)
        with grid_aborts_on(CrashAfter):
            execute_grid(configs, jobs=1, store=store, manifest=manifest)
        assert len(store) == 3
        survived = RunManifest.load(tmp_path / "run")
        assert len(survived.completed()) == 3
        assert len(survived.events()) >= 6  # 3x started+done, 1x error

        # Resume: finished points come from disk, the rest execute.
        executed = crashing_runner(monkeypatch, crash_after=None)
        outcomes = execute_grid(configs, jobs=1, store=store,
                                manifest=survived)
        assert len(executed) == 5
        assert sum(o.cached for o in outcomes) == 3
        assert blob_bytes(store) == sequential_reference

    def test_parallel_resume_is_byte_identical(
            self, tmp_path, monkeypatch, sequential_reference):
        configs = grid_configs()
        store = ResultStore(tmp_path / "store")
        crashing_runner(monkeypatch, crash_after=4)
        with grid_aborts_on(CrashAfter):
            execute_grid(configs, jobs=1, store=store)
        monkeypatch.undo()

        outcomes = execute_grid(configs, jobs=2, store=store)
        assert sum(o.cached for o in outcomes) == 4
        assert blob_bytes(store) == sequential_reference


class TestFailingPoint:
    """One failure contract at any ``jobs``: the same exception, an
    ``error`` event, and a ``done`` event for every blob in the store —
    including points that finished while the pool drained."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_abort_keeps_log_and_store_in_step(self, tmp_path, monkeypatch,
                                               jobs):
        scale = dict(records_per_node=150, measured_ops=80, warmup_ops=15)
        # Built bare, so nothing skips the middle one: Voldemort cannot
        # scan and the deployment refuses it inside the worker.
        bad = BenchmarkConfig("voldemort", WORKLOAD_RS, 1, **scale)
        configs = [BenchmarkConfig("redis", WORKLOAD_R, 1, **scale), bad,
                   BenchmarkConfig("redis", WORKLOAD_R, 2, **scale)]
        store = ResultStore(tmp_path / "store")
        manifest = RunManifest.create(
            tmp_path / "run", figures=["grid"], profile_name="tiny",
            jobs=jobs, point_hashes=[c.content_hash() for c in configs])

        with grid_aborts_on(ValueError) as excinfo:
            execute_grid(configs, jobs=jobs, store=store, manifest=manifest)
        cause = str(excinfo.value.__cause__)
        assert "scan" in cause
        assert str(excinfo.value) == (
            f"grid point voldemort/RS/n1 cluster=M failed: {cause}")
        errors = [event for event in manifest.events()
                  if event["event"] == "error"]
        assert errors == [{"event": "error", "point": bad.content_hash(),
                           "message": cause}]
        assert set(manifest.completed()) == set(store.keys())
        assert configs[0].content_hash() in manifest.completed()
        assert bad.content_hash() not in manifest.in_flight()

        # Whatever finished is a hit now; only the failed point runs
        # (inline, so the patched runner sees it in this process).
        executed = crashing_runner(monkeypatch, crash_after=None)
        with grid_aborts_on(ValueError):
            execute_grid(configs, jobs=1, store=store, manifest=manifest)
        assert executed == [bad]


@pytest.fixture(scope="module")
def reference_reproduction(tmp_path_factory):
    """A sequential ``reproduce`` run of one real figure, tiny profile."""
    root = tmp_path_factory.mktemp("repro-seq")
    report = reproduce(figures=["fig3"], profile=TINY_PROFILE,
                       store=root / "store", out_dir=root / "figures",
                       jobs=1)
    fig_path = root / "figures" / "fig3.json"
    return report, fig_path.read_bytes()


class TestReproduce:
    def test_sequential_reference_ran(self, reference_reproduction):
        report, payload = reference_reproduction
        assert report.points_executed > 0
        assert report.points_cached == 0
        assert report.waves == 1
        assert report.point_walls  # per-point wall-time telemetry
        assert any(p.name == "fig3.json" for p in report.written)
        json.loads(payload)  # artefact is valid JSON

    def test_parallel_reproduce_is_byte_identical(
            self, tmp_path, reference_reproduction):
        __, expected = reference_reproduction
        reproduce(figures=["fig3"], profile=TINY_PROFILE,
                  store=tmp_path / "store", out_dir=tmp_path / "figures",
                  jobs=4)
        assert (tmp_path / "figures" / "fig3.json").read_bytes() == expected

    def test_rerun_is_pure_cache_hit(self, tmp_path,
                                     reference_reproduction):
        __, expected = reference_reproduction
        kwargs = dict(figures=["fig3"], profile=TINY_PROFILE,
                      store=tmp_path / "store",
                      out_dir=tmp_path / "figures")
        first = reproduce(**kwargs)
        second = reproduce(**kwargs)
        assert second.points_executed == 0
        assert second.points_cached == first.points_total
        assert (tmp_path / "figures" / "fig3.json").read_bytes() == expected

    def test_resume_after_crash_skips_finished_points(
            self, tmp_path, monkeypatch, reference_reproduction):
        __, expected = reference_reproduction
        run_dir = tmp_path / "run"
        kwargs = dict(figures=["fig3"], profile=TINY_PROFILE,
                      store=tmp_path / "store",
                      out_dir=tmp_path / "figures", run_dir=run_dir)

        crashing_runner(monkeypatch, crash_after=2)
        with grid_aborts_on(CrashAfter):
            reproduce(**kwargs)
        assert RunManifest.exists(run_dir)
        done_before = len(RunManifest.load(run_dir).completed())
        assert done_before == 2

        executed = crashing_runner(monkeypatch, crash_after=None)
        report = reproduce(resume=True, **kwargs)
        assert report.points_cached == 2
        assert report.points_executed == len(executed)
        assert (tmp_path / "figures" / "fig3.json").read_bytes() == expected

    def test_resume_refuses_mismatched_grid(self, tmp_path):
        run_dir = tmp_path / "run"
        reproduce(figures=["table1"], profile=TINY_PROFILE,
                  store=tmp_path / "store", out_dir=tmp_path / "figures",
                  run_dir=run_dir)
        from repro.orchestrator.manifest import ManifestMismatchError
        with pytest.raises(ManifestMismatchError):
            reproduce(figures=["fig17"], profile=TINY_PROFILE,
                      store=tmp_path / "store",
                      out_dir=tmp_path / "figures", run_dir=run_dir,
                      resume=True)

    def test_dry_run_executes_nothing(self, tmp_path):
        report = reproduce(figures=["fig3"], profile=TINY_PROFILE,
                           store=tmp_path / "store", dry_run=True)
        assert report.points_executed == 0
        assert report.plan is not None
        assert not report.plan.complete
        assert len(blob_bytes(ResultStore(tmp_path / "store"))) == 0

    def test_expand_figure_ids(self):
        assert "fig3" in expand_figure_ids("all")
        assert expand_figure_ids("fig3, fig4") == ["fig3", "fig4"]
        assert expand_figure_ids(["table1"]) == ["table1"]
        with pytest.raises(ValueError, match="unknown figure"):
            expand_figure_ids("fig99")


class TestVerifyFigures:
    def test_committed_exports_pass(self):
        assert verify_figures("benchmarks/results", "fig3,fig4") == []

    def test_missing_export_is_a_violation(self, tmp_path):
        violations = verify_figures(tmp_path, "fig3")
        assert violations and "missing export" in violations[0]

    def test_doctored_export_is_caught(self, tmp_path):
        from pathlib import Path
        payload = json.loads(
            Path("benchmarks/results/fig3.json").read_text())
        # Tank Redis: "highest 1-node throughput" must now fail.
        payload["series"]["redis"] = [
            [x, 0.001] for x, __ in payload["series"]["redis"]]
        (tmp_path / "fig3.json").write_text(json.dumps(payload))
        violations = verify_figures(tmp_path, "fig3")
        assert any("Redis" in v for v in violations)

    def test_unreadable_export_is_a_violation(self, tmp_path):
        (tmp_path / "fig3.json").write_text("{ nope")
        violations = verify_figures(tmp_path, "fig3")
        assert violations and "unreadable" in violations[0]
