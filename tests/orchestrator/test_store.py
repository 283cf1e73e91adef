"""The content-addressed on-disk result store."""

import json

import repro.orchestrator.pool as pool_module
from repro.analysis.cache import ResultCache
from repro.orchestrator.pool import execute_grid
from repro.orchestrator.store import ResultStore
from repro.ycsb.workload import WORKLOAD_RW

from tests.orchestrator.test_serialize import make_config, make_result


class TestResultStore:
    def test_miss_returns_none(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get(make_config()) is None
        assert not store.contains(make_config())
        assert len(store) == 0

    def test_put_then_get(self, tmp_path):
        store = ResultStore(tmp_path)
        result = make_result()
        path = store.put(result)
        assert path is not None
        assert path.is_file()
        assert store.contains(result.config)
        got = store.get(result.config)
        assert got.row() == result.row()
        assert store.disk_hits == 1
        assert list(store.keys()) == [result.config.content_hash()]

    def test_layout_is_content_addressed(self, tmp_path):
        store = ResultStore(tmp_path)
        result = make_result()
        path = store.put(result)
        content_hash = result.config.content_hash()
        assert path.name == f"{content_hash}.json"
        assert path.parent.name == content_hash[:2]
        assert path.parent.parent.name == "objects"

    def test_blob_is_provenance_stamped(self, tmp_path):
        store = ResultStore(tmp_path)
        result = make_result()
        payload = json.loads(store.put(result).read_text())
        assert payload["provenance"]["seed"] == result.config.seed
        assert "config_hash" in payload["provenance"]
        assert "package_version" in payload["provenance"]

    def test_rewrite_is_byte_identical(self, tmp_path):
        store = ResultStore(tmp_path)
        result = make_result()
        path = store.put(result)
        first = path.read_bytes()
        store.put(make_result())
        assert path.read_bytes() == first

    def test_corrupt_blob_counts_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        result = make_result()
        path = store.put(result)
        path.write_text("{ truncated")
        assert store.get(result.config) is None
        assert not store.contains(result.config)

    def test_blob_from_another_package_version_is_a_miss(self, tmp_path):
        """The key is the config hash alone; simulated statistics may
        move between versions, so a persistent store must not answer
        with another version's payload."""
        store = ResultStore(tmp_path)
        result = make_result()
        path = store.put(result)
        fresh = path.read_bytes()
        document = json.loads(fresh)
        document["provenance"]["package_version"] = "0.0.0"
        path.write_text(json.dumps(document, indent=2, sort_keys=True))
        assert store.get(result.config) is None
        assert not store.contains(result.config)
        assert store.disk_hits == 0
        # The re-run overwrites the stale blob in place.
        assert store.put(make_result()) == path
        assert path.read_bytes() == fresh
        assert store.get(result.config).row() == result.row()

    def test_unportable_result_is_skipped(self, tmp_path):
        store = ResultStore(tmp_path)
        result = make_result()
        result.fault_log = [(1.0, "crash")]
        assert store.put(result) is None
        assert len(store) == 0

    def test_distinct_configs_distinct_blobs(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(make_result())
        store.put(make_result(config=make_config(workload=WORKLOAD_RW)))
        assert len(store) == 2


class TestCacheReadThrough:
    """The store read-through and write-back live in ``execute_grid``
    alone; a memo sees the store only through the runner it is given."""

    @staticmethod
    def stub_runner(monkeypatch):
        """Replace the worker's ``run_config`` seam; returns its calls."""
        calls = []

        def runner(config):
            calls.append(config)
            return make_result(config=config)

        monkeypatch.setattr(pool_module, "run_config", runner)
        return calls

    def test_miss_runs_and_persists(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        calls = self.stub_runner(monkeypatch)
        config = make_config()
        outcome, = execute_grid([config], store=store)
        assert len(calls) == 1
        assert not outcome.cached
        assert outcome.result.row() == make_result().row()
        assert store.contains(config)

    def test_fresh_cache_hits_disk_not_runner(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        calls = self.stub_runner(monkeypatch)
        execute_grid([make_config()], store=store)
        outcome, = execute_grid([make_config()], store=store)
        assert len(calls) == 1  # the second call never reached the runner
        assert outcome.cached
        assert outcome.wall_s == 0.0
        assert outcome.result.row() == make_result().row()
        assert store.disk_hits == 1

    def test_clear_keeps_disk(self, tmp_path, monkeypatch):
        """A fresh process-local memo over the same store re-reads what
        is on disk; it does not re-run it."""
        store = ResultStore(tmp_path)
        calls = self.stub_runner(monkeypatch)

        def get_or_run(config):
            outcome, = execute_grid([config], store=store)
            return outcome.result

        cache = ResultCache(runner=get_or_run)
        first = cache.get(make_config())
        assert cache.get(make_config()) is first  # memo: no disk read
        assert store.disk_hits == 0
        for memo in (cache, ResultCache(runner=get_or_run)):
            memo.clear()
            assert memo.get(make_config()).row() == first.row()
        assert len(calls) == 1
        assert store.disk_hits == 2
