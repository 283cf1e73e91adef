"""One value in use is a constant: the bytes it must not move.

A parameter that no program sets is turned into the value it always
has, and the code only another value reaches goes with it.  These pins
were taken before that cut, for the outputs no other golden covers: a
seeded random fault plan (the slow-disk draws that went came after the
last draw a plan uses), the two ASCII renderers whose sizes were
parameters, and the Prometheus snapshot whose ``# HELP`` branch went.
They live in section ``constants`` of ``tests/cli_golden.json`` and
compare through ``tests/goldens.py``.

:class:`TestGuard` keeps the cut: each of those parameters stays gone,
and so does the code only they reached.
"""

import dataclasses
import hashlib
import inspect
from pathlib import Path

import pytest

from repro.analysis import prometheus
from repro.analysis.export import figure_to_json
from repro.analysis.figures import FigureData
from repro.analysis.prometheus import registry_to_prometheus
from repro.analysis.report import render_chart
from repro.analysis.sweep import SweepResult
from repro.audit.linearize import check_linearizable
from repro.cli import main
from repro.control.controller import Controller
from repro.faults.availability import AvailabilityTimeline
from repro.faults.schedule import FaultSchedule
from repro.obs.exemplars import ExemplarStore
from repro.overload.budget import RetryBudget
from repro.overload.openloop import (_OpenLoopRun, _refine_capacity,
                                     find_saturation, run_overload_point)
from repro.plan import analytical_frontier, run_plan
from repro.sim.cluster import Cluster
from repro.sim.kernel import Event
from repro.storage.encoding import (DiskUsageModel, encode_binlog_event,
                                    encode_hfile_cells)
from repro.stores.base import Store
from repro.stores.hbase import HBaseStore
from repro.stores.hdfs import Hdfs, HdfsBlock, NameNode
from repro.stores.mysql import MySQLStore
from repro.stores.sharding import TokenRing
from repro.stores.voldemort import VoldemortStore
from repro.ycsb.generator import LatestChooser, ZipfianChooser
from tests.goldens import check_golden

GOLDEN_PATH = Path(__file__).parent / "cli_golden.json"

NODES = [f"server-{i}" for i in range(4)]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _pin(name: str, text: str) -> None:
    check_golden(GOLDEN_PATH, ("constants", name), _digest(text))


class TestPins:
    def test_random_fault_schedules(self):
        lines = []
        for seed in range(1, 6):
            for n_crashes in (1, 3):
                for restart_probability in (1.0, 0.5):
                    schedule = FaultSchedule.random(
                        seed, NODES, 10.0, n_crashes=n_crashes,
                        restart_probability=restart_probability)
                    lines.append(f"seed={seed} crashes={n_crashes} "
                                 f"restart={restart_probability}")
                    lines += [f"  {action.at!r} {action.describe()}"
                              for action in schedule.actions()]
        _pin("fault_schedule_random", "\n".join(lines))

    def test_chaos_random_output(self, capsys):
        code = main(["run", "-s", "redis", "-n", "4", "--random", "2",
                     "--records", "300", "--duration", "0.6"])
        _pin("chaos_random_2", f"exit {code}\n{capsys.readouterr().out}")

    def test_render_chart(self):
        data = FigureData(
            "fig3", "Throughput for Workload R", "Number of Nodes",
            "Throughput (Operations/sec)",
            series={"cassandra": [(1.0, 26_000.0), (4.0, 70_000.0),
                                  (12.0, 150_000.0)],
                    "redis": [(1.0, 52_000.0), (4.0, 61_000.0),
                              (12.0, 95_000.0)]})
        linear = render_chart(data)
        data.log_y = True
        data.series["zero"] = [(2.0, 0.0), (8.0, 3.5)]
        _pin("render_chart", linear + "\n" + render_chart(data))

    def test_availability_render(self):
        timeline = AvailabilityTimeline(0.25)
        for i in range(200):
            now = i * 0.01
            timeline.record(now, error=0.8 <= now < 1.1 and i % 3 == 0)
        _pin("availability_render",
             timeline.render() + "\n"
             + timeline.render(fault_windows=[(0.8, 1.1)]))

    def test_prometheus_snapshot_of_an_hbase_run(self, tmp_path,
                                                 monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "-s", "hbase", "-n", "2", "--records", "400",
                     "--ops", "300", "--metrics", "--metrics-interval",
                     "0.1", "--metrics-out", "out/m"]) == 0
        capsys.readouterr()
        _pin("prometheus_hbase", (tmp_path / "out/m.prom").read_text())


#: ``(callable, parameters no program set)``: each is now the constant
#: it always was.
GONE = [
    (HBaseStore, ("dfs_replication", "lsm_config")),
    (Hdfs, ("replication",)),
    (NameNode.allocate_block, ("replication", "n_datanodes")),
    (registry_to_prometheus, ("help_text",)),
    (Controller, ("store_name", "recorder")),
    (FaultSchedule.random, ("min_outage_s", "max_outage_s",
                            "slow_disk_probability", "slow_disk_factor")),
    (find_saturation, ("refine",)),
    (_refine_capacity, ("duration_s", "warmup_s", "max_doublings")),
    (run_overload_point, ("queue_sample_s",)),
    (_OpenLoopRun, ("queue_sample_s",)),
    (ZipfianChooser, ("theta",)),
    (LatestChooser, ("theta",)),
    (TokenRing, ("hash_fn",)),
    (MySQLStore, ("btree_order",)),
    (VoldemortStore, ("btree_order",)),
    (Cluster, ("sim",)),
    (RetryBudget, ("start",)),
    (check_linearizable, ("initial",)),
    (encode_hfile_cells, ("family",)),
    (encode_binlog_event, ("table",)),
    (DiskUsageModel.node_bytes, ("schema",)),
    (Store.cached_read_io, ("read_bytes",)),
    (analytical_frontier, ("paper_records_per_node",)),
    (run_plan, ("max_nodes", "progress")),
    (figure_to_json, ("indent",)),
    (SweepResult.to_dict, ("indent",)),
    (SweepResult.best_by, ("metric",)),
    (SweepResult.series, ("metric",)),
    (render_chart, ("width", "height")),
    (AvailabilityTimeline.render, ("width",)),
    (ExemplarStore.prometheus_exemplars, ("metric",)),
]


class TestGuard:
    @pytest.mark.parametrize("function, names", GONE,
                             ids=[f.__qualname__ for f, __ in GONE])
    def test_parameter_is_a_constant(self, function, names):
        parameters = inspect.signature(function).parameters
        assert not set(names) & set(parameters)

    def test_code_only_those_values_reached_is_gone(self):
        assert not hasattr(prometheus, "_escape_help")
        assert not hasattr(Hdfs, "_replicate")
        assert not hasattr(HdfsBlock, "replicas")
        assert not hasattr(HdfsBlock, "locations")
        assert "replicas" not in {
            field.name for field in dataclasses.fields(HdfsBlock)}
        assert not hasattr(Event, "_run_callbacks")
