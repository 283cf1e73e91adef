"""Unit tests for the apmbench CLI."""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.analysis.export import write_figure
from repro.analysis.figures import profile_by_name
from repro.cli import main
from repro.orchestrator import reproduce

from tests.goldens import check_golden, versionless


class TestList:
    def test_lists_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "cassandra" in out
        assert "RSW" in out
        assert "fig17" in out


class TestRun:
    def test_runs_small_benchmark(self, capsys):
        code = main(["run", "-s", "redis", "-w", "R", "-n", "1",
                     "--records", "1500", "--ops", "300"])
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput:" in out
        assert "latency ms:" in out

    def test_rejects_unknown_store(self):
        with pytest.raises(SystemExit):
            main(["run", "-s", "mongodb"])

    def test_run_with_metrics(self, tmp_path, capsys):
        import json

        base = tmp_path / "out" / "metrics"
        code = main(["run", "-s", "redis", "-w", "R", "-n", "1",
                     "--records", "1000", "--ops", "400",
                     "--metrics", "--metrics-out", str(base)])
        assert code == 0
        out = capsys.readouterr().out
        assert "resource utilisation" in out
        assert "bottleneck:" in out
        assert "sustained-throughput check" in out
        csv_text = base.with_suffix(".csv").read_text()
        assert csv_text.startswith("start,end,channel,value\n")
        prom_text = base.with_suffix(".prom").read_text()
        assert "# TYPE" in prom_text
        payload = json.loads(base.with_suffix(".json").read_text())
        assert payload["saturation"]["bottleneck"]
        assert payload["provenance"]["seed"] == 42
        assert "config_hash" in payload["provenance"]


def _reproduce(tmp_path, *argv) -> int:
    return main(["reproduce", *argv, "--store", str(tmp_path / "store"),
                 "--out", str(tmp_path / "figures")])


class TestFigure:
    # ``reproduce`` prints the table of every figure it rebuilds.
    def test_fig17_renders_and_checks(self, tmp_path, capsys):
        assert _reproduce(tmp_path, "--figures", "fig17", "--check",
                          "--chart") == 0
        out = capsys.readouterr().out
        assert "Disk usage" in out
        assert "all paper expectations hold" in out

    def test_table1(self, tmp_path):
        assert _reproduce(tmp_path, "--figures", "table1", "--check") == 0


class TestFigureExport:
    def test_export_writes_json_and_csv(self, tmp_path, capsys):
        assert _reproduce(tmp_path, "--figures", "fig17") == 0
        assert (tmp_path / "figures" / "fig17.json").exists()
        assert (tmp_path / "figures" / "fig17.csv").exists()
        assert "artefacts: 2 files" in capsys.readouterr().out


class TestCapacity:
    """Section 8's check is ``plan``'s: the estate's insert rate set
    against the tier a store is modelled to serve."""

    SECTION_8 = ["plan", "--stores", "cassandra", "--hardware", "paper-m",
                 "--max-nodes", "12", "--dry-run"]

    def test_paper_example_not_sustainable(self, capsys):
        # 240 agents x 10 K metrics / 10 s is "higher than the maximum
        # throughput that Cassandra achieves ... but not drastically".
        assert main(self.SECTION_8) == 0
        out = capsys.readouterr().out
        assert "240,000 inserts/s" in out
        assert "[skip] cassandra/paper-m" in out

    def test_sustainable_case(self, capsys):
        assert main(self.SECTION_8 + ["--users", "1200000"]) == 0
        out = capsys.readouterr().out
        assert "120,000 inserts/s" in out
        assert "[sim ] cassandra" in out


class TestPlan:
    def test_dry_run_prints_candidates_without_simulating(self, capsys):
        code = main(["plan", "--users", "200000",
                     "--stores", "voltdb,redis",
                     "--hardware", "paper-m,paper-d", "--dry-run"])
        assert code == 0
        out = capsys.readouterr().out
        assert "candidates:" in out
        assert "examined" in out
        assert "est cost:" in out
        assert "[sim ]" in out
        # Dry run never simulates, so there is nothing to recommend.
        assert "RECOMMENDATION" not in out

    def test_unknown_store_is_a_usage_error(self, capsys):
        code = main(["plan", "--stores", "mongodb", "--dry-run"])
        assert code == 2
        assert "unknown store" in capsys.readouterr().err

    def test_unknown_hardware_is_a_usage_error(self, capsys):
        code = main(["plan", "--hardware", "abacus", "--dry-run"])
        assert code == 2
        assert "abacus" in capsys.readouterr().err

    def test_bad_slo_is_a_usage_error(self, capsys):
        code = main(["plan", "--slo", "read:99:0.05", "--dry-run"])
        assert code == 2
        assert "SLO" in capsys.readouterr().err

    def test_plan_run_exports_deterministically(self, tmp_path, capsys):
        import json

        args = ["plan", "--users", "50000", "--stores", "redis",
                "--hardware", "paper-m", "--records", "2000",
                "--ops", "1000", "--warmup", "100",
                "--store", str(tmp_path / "results")]
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert main(args + ["--export", str(first)]) == 0
        out = capsys.readouterr().out
        assert "RECOMMENDATION" in out
        assert "redis" in out
        # Second run replays from the result store, byte-identically.
        assert main(args + ["--export", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        payload = json.loads(first.read_text())
        assert payload["recommended"]["store"] == "redis"
        assert payload["provenance"]["seed"] == 42


@pytest.mark.parametrize("argv, message", [
    (["overload", "-s", "redis", "--shape", "bogus"], "arrival shape"),
    (["control", "--shape", "bogus"], "arrival shape"),
    (["obs", "--shape", "bogus"], "arrival shape"),
    (["audit", "--sweep", "--points", "1-1"], "--points"),
    (["audit", "--fault", "bogus"], "fault scenario"),
    (["audit", "-s", "redis", "-N", "3"], "no replication knobs"),
    (["audit", "--sweep", "-s", "redis"], "no replication knobs"),
    (["run", "-s", "redis", "--random", "2"], "--random needs --duration"),
    (["run", "-s", "redis", "-n", "1", "--crash", "server-9"],
     "unknown node"),
    (["run", "-s", "redis", "--rf", "2"], "only apply to cassandra"),
    (["reproduce", "--figures", "fig99", "--dry-run"], "unknown figure"),
], ids=["overload-shape", "control-shape", "obs-shape", "audit-points",
        "audit-fault", "audit-replication", "audit-sweep-replication",
        "run-random", "run-crash", "run-replication", "reproduce-figure"])
def test_bad_argument_is_a_usage_error(argv, message, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith("apmbench ")


class TestReproduce:
    def test_dry_run_prints_plan(self, tmp_path, capsys):
        code = main(["reproduce", "--figures", "fig3,fig4",
                     "--profile", "smoke", "--dry-run",
                     "--store", str(tmp_path / "store")])
        assert code == 0
        out = capsys.readouterr().out
        assert "figures:  fig3, fig4" in out
        assert "to run" in out
        assert "est cost" in out
        assert "[run ]" in out

    def test_model_only_figures_end_to_end(self, tmp_path, capsys):
        code = main(["reproduce", "--figures", "table1,fig17",
                     "--profile", "smoke", "--check",
                     "--store", str(tmp_path / "store"),
                     "--out", str(tmp_path / "figures")])
        assert code == 0
        out = capsys.readouterr().out
        assert "points:    0 executed" in out
        assert "artefacts:" in out
        assert "all paper expectations hold" in out
        assert (tmp_path / "figures" / "fig17.json").exists()
        assert (tmp_path / "figures" / "table1.csv").exists()


class TestGrid:
    def test_runs_exports_and_then_caches(self, tmp_path, capsys):
        import json

        export = tmp_path / "grid.json"
        base = ["grid", "--stores", "redis", "--workloads", "R",
                "--nodes", "1,2", "--records", "200", "--ops", "100",
                "--warmup", "20", "--store", str(tmp_path / "store")]
        assert main(base + ["--export", str(export)]) == 0
        out = capsys.readouterr().out
        assert "ETA" in out
        assert "wrote 2 rows" in out
        payload = json.loads(export.read_text())
        assert len(payload["rows"]) == 2
        assert "provenance" in payload

        # Second invocation: every point is already in the store.
        assert main(base + ["--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "2 points (2 cached, 0 to run)" in out
        assert "[hit ]" in out

    def test_rejects_unknown_workload(self, capsys):
        code = main(["grid", "--stores", "redis", "--workloads", "ZZ",
                     "--nodes", "1"])
        assert code == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_rejects_unknown_store(self, capsys):
        code = main(["grid", "--stores", "mongodb", "--workloads", "R",
                     "--nodes", "1"])
        assert code == 2
        assert "unknown store" in capsys.readouterr().err


class TestVerifyFigures:
    def test_committed_exports_pass(self, capsys):
        code = main(["verify-figures", "benchmarks/results",
                     "--figures", "fig3,fig17"])
        assert code == 0
        assert "all paper expectations hold" in capsys.readouterr().out

    def test_missing_exports_fail(self, tmp_path, capsys):
        code = main(["verify-figures", str(tmp_path),
                     "--figures", "fig3"])
        assert code == 1
        out = capsys.readouterr().out
        assert "EXPECTATION FAILED" in out
        assert "violation(s)" in out


class TestObs:
    def test_incident_report_with_chaos(self, tmp_path, capsys):
        import json

        out = tmp_path / "incident.json"
        code = main(["obs", "-s", "redis", "-n", "1",
                     "--records", "500", "--rate", "600",
                     "--duration", "1.5", "--crash", "server-0",
                     "--at", "0.5", "--restart-after", "0.5",
                     "--export", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "INCIDENT REPORT" in text
        assert "Alerts (" in text
        assert "Flight recorder:" in text
        payload = json.loads(out.read_text())
        assert payload["observability"]["slo"]["alerts"]
        assert payload["observability"]["flight_recorder"]["dumps"]
        assert payload["provenance"]["seed"] == 42

    def test_rejects_unknown_crash_target(self, capsys):
        code = main(["obs", "-s", "redis", "-n", "1",
                     "--crash", "server-9"])
        assert code == 2
        assert "unknown node" in capsys.readouterr().err


# -- snapshots ---------------------------------------------------------------
#
# ``cli.py`` is argument plumbing, so what it must keep is text: every
# subcommand's ``--help`` and, for one small invocation of each command
# that builds a run, what it prints and what it exports.  Both goldens
# were taken before the per-subcommand boilerplate was folded into shared
# helpers.  They are also the CLI's byte-identity referee: a digest is
# recorded in one interpreter and checked in another, each with its own
# ``hash()`` randomisation, so an export that leaks hash order, a
# process-global counter or wall-clock state fails here, and so does one
# that drifts between commits.  Regenerate after an *intentional* change
# with::
#
#     REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest \
#         tests/test_cli.py -k Snapshots

GOLDEN_PATH = Path(__file__).parent / "cli_golden.json"

SUBCOMMANDS = ("list", "run", "reproduce", "grid", "overload", "control",
               "obs", "audit", "verify-figures", "plan")

#: ``name -> (argv, stdout is deterministic)``.  Exports are written to
#: relative paths inside a temporary working directory (a run under
#: crashes only prints); ``grid`` and ``plan`` print wall-clock progress,
#: so only their exports are pinned.
INVOCATIONS = {
    "run": (["run", "-s", "redis", "-w", "RW", "-n", "1", "-c", "D",
             "--records", "800", "--ops", "300", "--seed", "3", "--metrics",
             "--metrics-interval", "0.1", "--metrics-out", "out/m"], True),
    "chaos": (["run", "-s", "cassandra", "-n", "3", "-c", "D", "--rf", "2",
               "--consistency", "quorum", "--crash", "server-1",
               "--at", "0.3", "--restart-after", "0.3", "--records", "300",
               "--duration", "0.9"], True),
    "chaos-random": (["run", "-s", "redis", "-w", "RW", "-n", "2",
                      "--random", "1", "--records", "300",
                      "--duration", "0.5"], True),
    # A scan workload on Cluster D saturates in the low thousands of
    # ops/s, which keeps the open-loop capacity probes short.
    "overload": (["overload", "-s", "cassandra", "-w", "RS", "-n", "1",
                  "-c", "D", "--records", "500", "--ops", "300",
                  "--multipliers", "1,2", "--duration", "0.2",
                  "--warmup", "0.05", "--deadline", "0.05",
                  "--max-queue", "16", "--no-sustained",
                  "--shape", "flash:at=0.1,multiplier=3",
                  "--export", "out/overload.json"], True),
    "control": (["control", "-s", "redis", "--rate", "800",
                 "--duration", "3", "--shape", "diurnal:period=3,trough=0.25",
                 "--max-nodes", "2", "--records", "500", "--kill-at", "2",
                 "--export", "out/control.json"], True),
    "obs": (["obs", "-s", "redis", "-n", "1", "--records", "500",
             "--rate", "600", "--duration", "1.5", "--crash", "server-0",
             "--at", "0.5", "--restart-after", "0.5",
             "--export", "out/obs.json"], True),
    "audit": (["audit", "-s", "voldemort", "-N", "2", "-W", "2",
               "--fault", "partition", "--export", "out/audit.json"], True),
    "audit-sweep": (["audit", "--sweep", "--ops", "40",
                     "--export", "out/sweep.json"], True),
    "grid": (["grid", "--stores", "redis", "--workloads", "R",
              "--nodes", "1", "--records", "200", "--ops", "100",
              "--warmup", "20", "--store", "store",
              "--export", "out/grid.json"], False),
    "plan": (["plan", "--users", "50000", "--stores", "redis",
              "--hardware", "paper-m", "--records", "1000", "--ops", "400",
              "--warmup", "50", "--store", "store",
              "--export", "out/plan.json"], False),
    # Redis open loop at a constant rate, and again under a flash crowd:
    # arrivals spaced by the shape's instantaneous rate, with the queue
    # monitor sampling beside them.
    "overload-redis": (["overload", "-s", "redis", "-n", "1",
                        "--records", "2000", "--ops", "600",
                        "--multipliers", "1,2", "--duration", "0.5",
                        "--warmup", "0.1", "--deadline", "0.05",
                        "--max-queue", "16", "--no-sustained",
                        "--export", "out/overload.json"], True),
    "shaped": (["overload", "-s", "redis", "-n", "1", "--records", "2000",
                "--ops", "600", "--multipliers", "1,2", "--duration", "0.5",
                "--warmup", "0.1", "--deadline", "0.05", "--max-queue", "16",
                "--no-sustained", "--shape", "flash:at=0.2,multiplier=3",
                "--export", "out/shaped.json"], True),
    # VoltDB open loop: the arrivals share the sessions, several in
    # flight on each, and every one picks its entry host round-robin.
    "open-voltdb": (["overload", "-s", "voltdb", "-n", "2",
                     "--records", "1000", "--ops", "400",
                     "--multipliers", "1.5", "--duration", "0.3",
                     "--warmup", "0.05", "--deadline", "0.05",
                     "--max-queue", "16", "--no-sustained",
                     "--protected-only",
                     "--export", "out/open-voltdb.json"], True),
    "audit-cassandra": (["audit", "-s", "cassandra", "--fault", "crash",
                         "--export", "out/audit.json"], True),
    "plan-two-stores": (["plan", "--users", "50000",
                         "--stores", "redis,voltdb", "--hardware", "paper-m",
                         "--records", "2000", "--ops", "1000",
                         "--warmup", "100", "--store", "store",
                         "--export", "out/plan.json"], False),
    # The one batch path, with two skipped points (no RS on Redis or
    # Voldemort) in its bytes.
    "grid-skips": (["grid", "--stores", "redis,voldemort",
                    "--workloads", "R,RS", "--nodes", "1,2",
                    "--records", "300", "--ops", "150", "--warmup", "20",
                    "--store", "store", "--export", "out/grid.json"], False),
    # The two read paths that discard work: at four nodes a MySQL scan
    # is the sharded fan-out, and 8 800 records are three flush rounds,
    # so an HBase get probes three store files a region.
    "grid-reads": (["grid", "--stores", "mysql,hbase",
                    "--workloads", "R,RSW", "--nodes", "1,4",
                    "--records", "2200", "--ops", "150", "--warmup", "20",
                    "--store", "store", "--export", "out/grid.json"], False),
    # The loads: 4 500 records a node are two Cassandra load rounds at
    # one node and three at two, each flushed from a memtable no scan
    # sorted, and a VoltDB load fills each partition's dict.
    "grid-loads": (["grid", "--stores", "cassandra,voltdb",
                    "--workloads", "R,W", "--nodes", "1,2",
                    "--records", "4500", "--ops", "150", "--warmup", "20",
                    "--store", "store", "--export", "out/grid.json"], False),
    # The scans: VoltDB's multi-partition scan merges every site's rows,
    # and 4 400 records a node are three load rounds, so a Cassandra or
    # HBase scan folds three runs and a memtable.
    "grid-scans": (["grid", "--stores", "voltdb,cassandra,hbase",
                    "--workloads", "RS", "--nodes", "2",
                    "--records", "4400", "--ops", "150", "--warmup", "20",
                    "--store", "store", "--export", "out/grid.json"], False),
}

#: Entries that take more than about 3 s: slow tier.
SLOW_INVOCATIONS = {"overload-redis", "shaped", "open-voltdb", "grid-reads",
                    "grid-scans"}

#: ``name -> extra argv`` that must not move the export: the same
#: command at ``--jobs 2`` and, where it keeps a result store, into a
#: second empty one.  Its digest is checked against ``name``'s golden.
SECOND_RUNS = {
    "audit-sweep": ["--jobs", "2"],
    "plan-two-stores": ["--store", "store-2"],
    **{name: ["--store", "store-2", "--jobs", "2"]
       for name in ("grid-skips", "grid-reads", "grid-loads", "grid-scans")},
}


def _tiered(names):
    """``names`` sorted, those in :data:`SLOW_INVOCATIONS` slow-marked."""
    return [pytest.param(name, marks=pytest.mark.slow)
            if name in SLOW_INVOCATIONS else name for name in sorted(names)]


def _add_exports(digest, directory: Path) -> None:
    """Feed ``digest`` every file the command left under ``out/``."""
    for path in sorted(directory.glob("out/*")):
        digest.update(f"\n== {path.name}\n"
                      f"{versionless(path.read_text())}".encode())


def _check_invocation(name, extras, tmp_path, monkeypatch, capsys) -> None:
    """Run ``INVOCATIONS[name]`` plus ``extras`` in ``tmp_path`` and check
    its exit code, printed output and exports against ``name``'s golden."""
    argv, stdout_is_deterministic = INVOCATIONS[name]
    monkeypatch.chdir(tmp_path)
    code = main(argv + extras)
    digest = hashlib.sha256(f"exit {code}\n".encode())
    if stdout_is_deterministic:
        digest.update(capsys.readouterr().out.encode())
    _add_exports(digest, tmp_path)
    check_golden(GOLDEN_PATH, ("output", name), digest.hexdigest())


class TestSnapshots:
    @pytest.mark.skipif(sys.version_info >= (3, 13),
                        reason="argparse renders option metavars "
                               "differently from Python 3.13 on")
    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_help_text(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        # Whitespace-normalised: line wrapping follows the terminal width.
        text = " ".join(capsys.readouterr().out.split())
        check_golden(GOLDEN_PATH, ("help", command), text)

    @pytest.mark.parametrize("name", _tiered(INVOCATIONS))
    def test_printed_output_and_export_bytes(self, name, tmp_path,
                                             monkeypatch, capsys):
        _check_invocation(name, [], tmp_path, monkeypatch, capsys)

    @pytest.mark.parametrize("name", _tiered(SECOND_RUNS))
    def test_second_run_matches_the_first_runs_golden(self, name, tmp_path,
                                                      monkeypatch, capsys):
        _check_invocation(name, SECOND_RUNS[name], tmp_path, monkeypatch,
                          capsys)

    @pytest.mark.parametrize("figure_id, profile", [
        ("table1", "quick"), ("fig17", "quick"),
        pytest.param("fig18", "smoke", marks=pytest.mark.slow)])
    def test_figure_export_bytes(self, figure_id, profile, tmp_path,
                                 monkeypatch):
        # What the figure benches write into ``benchmarks/results/``:
        # ``reproduce``'s data, unstamped.
        monkeypatch.chdir(tmp_path)
        report = reproduce([figure_id], profile=profile_by_name(profile),
                           store="store", out_dir=None)
        write_figure(report.data[figure_id], "out")
        digest = hashlib.sha256()
        _add_exports(digest, tmp_path)
        check_golden(GOLDEN_PATH, ("figure_export", figure_id),
                     digest.hexdigest())
