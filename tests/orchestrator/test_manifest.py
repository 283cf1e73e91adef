"""Crash-safe run manifests and their resume bookkeeping."""

import json

import pytest

from repro.orchestrator.manifest import ManifestMismatchError, RunManifest


def fresh(tmp_path, points=("aaa", "bbb", "ccc")):
    return RunManifest.create(tmp_path / "run", figures=["fig3"],
                              profile_name="smoke", jobs=2,
                              point_hashes=list(points))


class TestLifecycle:
    def test_create_writes_plan_atomically(self, tmp_path):
        manifest = fresh(tmp_path)
        assert RunManifest.exists(tmp_path / "run")
        on_disk = json.loads(manifest.manifest_path.read_text())
        assert on_disk["figures"] == ["fig3"]
        assert on_disk["profile"] == "smoke"
        assert on_disk["jobs"] == 2
        assert on_disk["points"] == ["aaa", "bbb", "ccc"]
        assert manifest.events_path.read_text() == ""

    def test_load_round_trip(self, tmp_path):
        fresh(tmp_path)
        loaded = RunManifest.load(tmp_path / "run")
        assert loaded.meta["points"] == ["aaa", "bbb", "ccc"]
        assert loaded.point_count() == 3

    def test_create_truncates_previous_log(self, tmp_path):
        manifest = fresh(tmp_path)
        manifest.record_start("aaa")
        recreated = fresh(tmp_path, points=("ddd",))
        assert recreated.events() == []

    def test_unknown_format_rejected(self, tmp_path):
        manifest = fresh(tmp_path)
        meta = json.loads(manifest.manifest_path.read_text())
        meta["format"] = 99
        manifest.manifest_path.write_text(json.dumps(meta))
        with pytest.raises(ManifestMismatchError, match="format"):
            RunManifest.load(tmp_path / "run")

    def test_check_grid_guards_resume(self, tmp_path):
        manifest = fresh(tmp_path)
        manifest.check_grid(["fig3"], "smoke")  # same grid: fine
        with pytest.raises(ManifestMismatchError, match="planned for"):
            manifest.check_grid(["fig4"], "smoke")
        with pytest.raises(ManifestMismatchError, match="planned for"):
            manifest.check_grid(["fig3"], "paper")


class TestEventLog:
    def test_point_lifecycle(self, tmp_path):
        manifest = fresh(tmp_path)
        manifest.record_start("aaa")
        manifest.record_done("aaa", 1.25)
        manifest.record_start("bbb")
        manifest.record_error("bbb", "worker died")
        manifest.record_start("ccc")
        # aaa finished, bbb errored, ccc was in flight at the crash.
        assert manifest.completed() == {"aaa": 1.25}
        assert manifest.in_flight() == {"ccc"}
        assert manifest.total_wall_s() == 1.25

    def test_torn_final_line_is_tolerated(self, tmp_path):
        manifest = fresh(tmp_path)
        manifest.record_start("aaa")
        manifest.record_done("aaa", 2.0)
        with manifest.events_path.open("a") as handle:
            handle.write('{"event": "done", "point": "bb')  # kill -9 here
        reloaded = RunManifest.load(tmp_path / "run")
        assert reloaded.completed() == {"aaa": 2.0}
        assert len(reloaded.events()) == 2

    def test_extend_plan_counts_later_waves(self, tmp_path):
        manifest = fresh(tmp_path)
        manifest.extend_plan(["ddd", "eee"])
        manifest.extend_plan(["ddd"])  # replanned, not double-counted
        assert manifest.point_count() == 5

    def test_wall_time_telemetry(self, tmp_path):
        manifest = fresh(tmp_path)
        manifest.record_done("aaa", 0.5)
        manifest.record_done("bbb", 1.5)
        assert manifest.completed() == {"aaa": 0.5, "bbb": 1.5}
        assert manifest.total_wall_s() == 2.0
        assert "2/3 points done" in manifest.summary()
        assert "slowest point 1.5s" in manifest.summary()

    def test_summary_none_for_empty_log(self, tmp_path):
        assert fresh(tmp_path).summary() is None
