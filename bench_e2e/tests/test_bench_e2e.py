"""Tests of the benchmark itself: ``python -m pytest bench_e2e -q``.

They sit outside tier-1's ``testpaths`` and run every workload at a scale
small enough to finish in well under a minute.
"""

import copy
import json
import re
import signal
import subprocess
import sys
import time
import warnings

import pytest

from bench_e2e import api, calibrate, runner
from bench_e2e.compare import compare, verdict
from bench_e2e.layers import self_seconds
from bench_e2e.passes import check_point, run_pass
from bench_e2e.trace import Tracer
from bench_e2e.workloads import WORKLOADS

SCALE = 0.02
SEED = 11
DECLARED = runner.DECLARED
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _names(kind):
    return [metric["name"] for metric in DECLARED[kind]]


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """One untraced and one traced pass of every workload."""
    scratch = tmp_path_factory.mktemp("scratch")
    return {name: [run_pass(name, SEED, SCALE, traced, scratch)
                   for traced in (False, True)]
            for name in WORKLOADS}


@pytest.fixture(scope="module")
def summaries(passes):
    return {name: runner.summarise(both) for name, both in passes.items()}


def test_declarations_meet_the_contract():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in DECLARED["workloads"])
    assert _names("end_to_end") == ["wall_s", "setup_s", "sim_s",
                                    "peak_rss_mb"]
    assert all(0 < m["bound"] <= 0.25 for m in DECLARED["end_to_end"])
    assert len(DECLARED["per_layer"]) <= 128
    names = _names("end_to_end") + _names("per_layer") + list(WORKLOADS)
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)


def test_every_workload_runs_clean_untraced_and_traced(summaries):
    for name, summary in summaries.items():
        assert summary["correct"], summary["points"]
        assert summary["failed"] == 0 and summary["attempted"] > 0
        assert summary["passes"] == summary["traced_passes"] == 1
        assert [p["name"] for p in summary["points"]] == [
            point.name for point in WORKLOADS[name].points]
        assert all(value > 0 for value in summary["end_to_end"].values())


def test_emitted_names_are_the_declared_ones(summaries):
    emitted = set()
    for summary in summaries.values():
        assert list(summary["end_to_end"]) == _names("end_to_end")
        layers = set(summary["per_layer"])
        assert layers <= set(_names("per_layer")), layers - set(
            _names("per_layer"))
        assert layers | set(summary["absent"]) == set(_names("per_layer"))
        emitted |= layers
        for trace in (False, True):
            line = json.loads(runner.driver_line(summary, trace))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            kind = "per_layer" if trace else "end_to_end"
            assert list(line["metrics"]) == _names(kind)
    # Only the LSM scan path is entered by no workload (no Cassandra or
    # HBase scan point; the flushes and compactions under simulated time
    # need the full scale).
    assert set(_names("per_layer")) - emitted <= {
        "lsm.scans.sim", "lsm.scan_s.sim", "lsm.flush_s.sim",
        "lsm.compact_s.sim"}


def test_layer_self_times_sum_to_the_traced_wall(passes):
    for __, traced in passes.values():
        for point in traced["points"]:
            assert self_seconds(point["layers"]) == pytest.approx(
                point["wall_s"], rel=0.05), point["name"]


def test_exact_counts_and_digests_repeat(passes):
    for untraced, traced in passes.values():
        for one, other in zip(untraced["points"], traced["points"]):
            assert one["digest"] == other["digest"]
            assert one["counts"] == other["counts"]
            assert one["counts"]["kernel.events"] > 0
            assert one["counts"]["client.ops"] > 0


def test_workloads_do_what_they_were_chosen_for(summaries):
    """Shares at test scale are looser than at full scale (README.md);
    what must hold at any scale is which phase dominates."""
    shares = {name: {key: s["end_to_end"][key] / s["end_to_end"]["wall_s"]
                     for key in ("setup_s", "sim_s")}
              for name, s in summaries.items()}
    assert shares["load-bound"]["setup_s"] > shares["sim-bound"]["setup_s"]
    for name in ("sim-bound", "hbase-read", "write-churn"):
        assert shares[name]["sim_s"] > 0.7, shares
    lsm = summaries["write-churn"]["per_layer"]
    assert lsm["lsm.puts.sim"] > lsm["lsm.puts.setup"]
    assert summaries["hbase-read"]["per_layer"]["hdfs.reads"] > 0
    assert summaries["sim-bound"]["per_layer"]["disk.reads"] > 0


def test_untraced_seconds_are_clock_seconds_over_the_slowdown(passes):
    for untraced, traced in passes.values():
        assert traced["slowdown"] == 1.0  # a traced pass is not sampled
        assert not any(spins for point in traced["points"]
                       for spins in point["spins"].values())
        assert 0.3 < untraced["slowdown"] < 10
        for point in untraced["points"]:
            raw = point["raw"]
            assert set(raw) == set(point["spins"]) == {"setup_s", "sim_s",
                                                       "rest_s"}
            spins = point["spins"]["sim_s"]
            assert point["sim_s"] == pytest.approx(raw["sim_s"] / (
                calibrate.slowdown(spins)
                if len(spins) >= calibrate.MIN_LOCAL_SPINS
                else untraced["slowdown"]))
            assert point["wall_s"] > point["setup_s"] + point["sim_s"]
    assert any(point["spins"]["sim_s"] for untraced, __ in passes.values()
               for point in untraced["points"])


def test_a_long_phase_is_corrected_by_its_own_spins():
    from bench_e2e.passes import _normalise
    reference, enough = calibrate.REFERENCE_S, calibrate.MIN_LOCAL_SPINS
    point = {"raw": {"setup_s": 10.0, "sim_s": 10.0, "rest_s": 1.0},
             "spins": {"setup_s": [reference] * enough,
                       "sim_s": [2 * reference] * enough,
                       "rest_s": [2 * reference]}}
    whole = _normalise([point])
    assert 1.0 < whole < 2.0
    assert point["setup_s"] == pytest.approx(10.0)
    assert point["sim_s"] == pytest.approx(5.0)
    assert point["wall_s"] == pytest.approx(15.0 + 1.0 / whole)


def test_slowdown_ignores_the_odd_stalled_spin():
    reference = calibrate.REFERENCE_S
    assert calibrate.slowdown([]) == 1.0
    assert calibrate.slowdown([reference * 1.5] * 20) == pytest.approx(1.5)
    stalled = [reference] * 18 + [1.0, 1.0]
    assert calibrate.slowdown(stalled) == pytest.approx(1.0)


def test_speed_sampler_spins_and_puts_the_handler_back():
    before = signal.getsignal(signal.SIGALRM)
    with calibrate.SpeedSampler() as speed:
        started = time.perf_counter()
        while time.perf_counter() - started < 3 * calibrate.PERIOD_S:
            pass
        ended = time.perf_counter()
    assert len(speed.spins) >= 2
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert speed.between(started, ended) == [s for __, s in speed.spins]
    assert speed.between(ended, ended + 1.0) == []


def test_a_failing_check_fails_every_op_of_the_point(passes):
    both = copy.deepcopy(passes["sim-bound"])
    both[1]["points"][2]["checks"] = ["injected failure"]
    summary = runner.summarise(both)
    broken = summary["points"][2]
    assert not summary["correct"]
    assert broken["checks"] == ["injected failure"]
    assert summary["failed"] == broken["counts"]["client.ops"] * len(both)
    assert json.loads(runner.driver_line(summary, False))["correct"] is False

    both = copy.deepcopy(passes["sim-bound"])
    both[1]["points"][0]["digest"] = "0" * 64
    assert not runner.summarise(both)["correct"]


def test_check_point_names_each_broken_promise():
    config = WORKLOADS["sim-bound"].points[0].config("sim-bound", SEED, 1.0)
    good = {"client.ops": config.measured_ops, "client.errors": 0,
            "simstat.throughput_ops": 10.0}
    assert check_point(config, good, "x", "x", False, True) == []
    assert len(check_point(config, good, "x", "y", False, True)) == 1
    assert len(check_point(config, good, "x", None, False, True)) == 1
    assert len(check_point(config, good, "x", "x", True, True)) == 1
    bad = {"client.ops": config.measured_ops - 1, "client.errors": 3,
           "simstat.throughput_ops": 0.0}
    assert len(check_point(config, bad, "x", "x", False, True)) == 3


def test_a_missing_wrap_target_is_skipped_with_a_warning(monkeypatch):
    monkeypatch.setattr(api, "_TARGETS", api._TARGETS + (
        ("gone.module", "repro.no_such_module", "f"),
        ("gone.attribute", "repro.storage.btree", "BPlusTree.no_such"),
    ))
    with pytest.warns(UserWarning, match="not found") as caught:
        labels = {label for label, __, __ in api.trace_targets(["redis"])}
    assert len(caught) == 2
    assert "btree.put" in labels and "gone.module" not in labels
    with pytest.warns(UserWarning, match="cannot read"):
        assert api.cluster_counters(object()) == {}


def test_tracer_puts_everything_back():
    from repro.storage.lsm.engine import LSMEngine
    from repro.ycsb import client, generator
    before = (LSMEngine.put, api.Simulator.run, generator.generate_record,
              client.generate_record)
    redis = api.store_class("redis")
    assert "warm_caches" not in vars(redis)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with Tracer(["redis"]):
            assert LSMEngine.put is not before[0]
            assert client.generate_record is not before[3]
            assert "warm_caches" in vars(redis)
    assert before == (LSMEngine.put, api.Simulator.run,
                      generator.generate_record, client.generate_record)
    assert "warm_caches" not in vars(redis)


def test_command_line_prints_the_driver_object_last():
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        done = subprocess.run(
            [sys.executable, "-m", "bench_e2e", "--workload", "sim-bound",
             "--seed", "5", "--seconds", "0", "--trace", trace,
             "--scale", str(SCALE)],
            cwd=api.ROOT, capture_output=True, text=True, timeout=170)
        assert done.returncode == 0, done.stderr
        line = json.loads(done.stdout.splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert list(line["metrics"]) == _names(kind)
        assert all(set(m) == {"value", "unit"}
                   for m in line["metrics"].values())
        assert "sha256" in done.stdout  # each point's digest, for people


def test_verdicts():
    base = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0, 10.02]
    assert verdict(base, base, 0.10) == "unchanged"
    assert verdict(base, [v * 1.2 for v in base], 0.10) == "regressed"
    assert verdict(base, [v * 0.8 for v in base], 0.10) == "improved"
    assert verdict(base, [v * 0.8 for v in base], 0.10,
                   lower_is_better=False) == "regressed"
    noisy = [10.0, 13.0, 8.0, 12.0, 9.0, 11.0, 7.5, 12.5, 10.0, 9.5]
    assert verdict(base, noisy, 0.10) == "unresolved"
    assert verdict([10.0], [8.0], 0.10) == "unresolved"
    # Better on the median, but not in nine pairs of ten: not a gain.
    mixed = [9.7, 9.7, 9.7, 9.7, 9.7, 9.7, 10.3, 10.3, 10.3, 9.7]
    assert verdict(base, mixed, 0.10) == "unchanged"


def test_compare_reports_each_workload_and_simulated_identity(
        summaries, tmp_path):
    def write(path, factor, digest=None):
        runs = []
        for summary in summaries.values():
            run = {key: value for key, value in summary.items()
                   if key != "spans"}
            run = copy.deepcopy(run)
            run["end_to_end"] = {key: value * factor for key, value
                                 in run["end_to_end"].items()}
            if digest and run["workload"] == "hbase-read":
                run["points"][0]["digest"] = digest
            runs += [run, copy.deepcopy(run)]
        path.write_text(json.dumps({"runs": runs}))

    write(tmp_path / "a.json", 1.0)
    write(tmp_path / "b.json", 1.5, digest="f" * 64)
    text = compare(tmp_path / "a.json", tmp_path / "b.json")
    rows = [line for line in text.splitlines() if "regressed" in line]
    assert len(rows) == len(WORKLOADS) * len(_names("end_to_end"))
    assert "hbase-read hbase/R: NO" in text
    assert "sim-bound mysql/RSW: yes" in text
