"""One way to run a batch of points, however it is reached.

* A batch of ``BenchmarkConfig``s runs through
  :func:`repro.orchestrator.pool.execute_grid`: ``run_sweep`` and
  ``apmbench grid`` are the same call and export the same document.
* Only ``execute_grid``'s worker entry writes a ``ResultStore``.
* A :class:`~repro.analysis.cache.ResultCache` is a memo: it is given a
  runner, never a store, and no process-global one exists.
* ``reproduce`` is the one way figure ids become ``FigureData``:
  ``apmbench reproduce`` goes through its store, nothing makes a memo
  that runs points live by default, and ``build_figure`` is gone.

The first is shown by running both, the last by running ``reproduce``
twice;
the rest are kept by an ``ast`` walk over ``src/repro`` in the style of
``tests/stores/test_shared_plumbing.py`` — an exception goes in an
allow-list below with its reason.
"""

import ast
import json
from pathlib import Path

import pytest

import repro
import repro.cli as cli
from repro.analysis.sweep import SweepSpec, run_sweep
from repro.orchestrator import pool
from repro.orchestrator.store import ResultStore
from repro.ycsb.workload import WORKLOAD_R, WORKLOAD_RS

from tests.analysis.test_figures import TINY
from tests.stores.test_shared_plumbing import _walk

SRC = Path(repro.__file__).parent

#: file -> why it may write a ``ResultStore``.
STORE_WRITERS = {
    "orchestrator/pool.py": "the worker entry of execute_grid",
}
#: file -> why it may build a process pool.
POOL_OWNERS = {
    "orchestrator/pool.py": "execute_grid, the one batch path",
    "audit/sweep.py": "an AuditScenario is not a BenchmarkConfig; a shared "
                      "primitive cost more lines than this four-line "
                      "pool.map saves (ROADMAP item 3)",
}
#: ``(file, function)`` -> why it may read the environment.
ENVIRONMENT_READERS = {
    ("analysis/figures.py", "active_profile"): "REPRO_BENCH_PROFILE",
}
#: Names that must not come back.
REMOVED_NAMES = {"default_cache", "_GLOBAL_CACHE", "sweep_configs",
                 "build_figure"}


# -- run_sweep and `apmbench grid` are one path ------------------------------


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_sweep_exports_what_apmbench_grid_exports(tmp_path, jobs,
                                                      capsys):
    spec = SweepSpec(stores=("redis", "voldemort"),
                     workloads=(WORKLOAD_R, WORKLOAD_RS),
                     node_counts=(1, 2), records_per_node=300,
                     measured_ops=150, warmup_ops=20)
    sweep = run_sweep(spec, jobs=jobs,
                      store=ResultStore(tmp_path / "library"))
    assert len(sweep.results) == 6
    assert sweep.skipped == [
        ("voldemort", "does not support scans (workload RS)")] * 2

    export = tmp_path / "grid.json"
    code = cli.main(["grid", "--stores", "redis,voldemort",
                     "--workloads", "R,RS", "--nodes", "1,2",
                     "--records", "300", "--ops", "150", "--warmup", "20",
                     "--jobs", str(jobs), "--store", str(tmp_path / "cli"),
                     "--export", str(export)])
    assert code == 0
    assert "wrote 6 rows" in capsys.readouterr().out
    assert json.loads(export.read_text()) == sweep.to_dict()


# -- `apmbench reproduce` takes the store path -------------------------------


def test_a_second_figure_invocation_executes_no_point(tmp_path, monkeypatch,
                                                      capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "active_profile", lambda: TINY)
    runs = []
    run_config = pool.run_config
    monkeypatch.setattr(
        pool, "run_config",
        lambda config: runs.append(config) or run_config(config))

    assert cli.main(["reproduce", "--figures", "fig18"]) == 0
    first = capsys.readouterr().out
    assert len(runs) == 9       # three stores x three workloads
    assert cli.main(["reproduce", "--figures", "fig18"]) == 0
    second = capsys.readouterr().out
    assert len(runs) == 9
    assert "points:    0 executed, 9 cache hits" in second
    # Progress and wall time aside, the same table.
    table = second[second.index("fig18: "):second.index("\nfigures:")]
    assert table in first
    # ...and Figure 19 is read off the same nine points.
    assert cli.main(["reproduce", "--figures", "fig19"]) == 0
    assert len(runs) == 9
    assert "fig19: " in capsys.readouterr().out


# -- the ast guard -----------------------------------------------------------


def _findings(source: str):
    """``(kind, function, line)`` of everything the rules look at."""
    imports_store = False
    puts = []
    for function, node in _walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            imports_store |= any(alias.name == "ResultStore"
                                 for alias in node.names)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and node.name in REMOVED_NAMES:
            yield "removed", node.name, node.lineno
        if isinstance(node, ast.ClassDef) and node.name == "ResultCache":
            for item in node.body:
                if getattr(item, "name", None) == "__init__" \
                        and item.args.defaults + item.args.kw_defaults:
                    yield "live-memo", "ResultCache.__init__", item.lineno
        if isinstance(node, (ast.Name, ast.alias)):
            name = node.id if isinstance(node, ast.Name) else node.name
            if name in REMOVED_NAMES:
                yield "removed", name, node.lineno
        if isinstance(node, ast.Attribute) and node.attr == "environ" \
                and getattr(node.value, "id", None) == "os":
            yield "environ", function, node.lineno
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        if getattr(callee, "id", getattr(callee, "attr", None)) \
                == "ResultCache" and not node.args + node.keywords:
            yield "live-memo", function, node.lineno
        if isinstance(callee, ast.Attribute) and callee.attr == "put":
            puts.append((function, node.lineno))
        if getattr(callee, "id", getattr(callee, "attr", None)) \
                == "ProcessPoolExecutor":
            yield "pool", function, node.lineno
    if imports_store:
        for function, line in puts:
            yield "store-put", function, line


def test_one_store_writer_one_pool_no_global_cache():
    seen = {"store-put": set(), "pool": set(), "environ": set()}
    for path in sorted(SRC.rglob("*.py")):
        name = path.relative_to(SRC).as_posix()
        for kind, function, line in _findings(path.read_text()):
            where = f"src/repro/{name}:{line} ({function})"
            if kind == "removed":
                raise AssertionError(
                    f"{where} names {function}; a memo is created by its "
                    "user, a SweepSpec expands itself and figure ids go "
                    "through reproduce")
            if kind == "live-memo":
                raise AssertionError(
                    f"{where}: a ResultCache is given its runner; points "
                    "that should be kept run through execute_grid")
            if kind == "store-put":
                assert name in STORE_WRITERS, (
                    f"{where} writes a ResultStore; run the point through "
                    "execute_grid, whose worker entry persists it")
                seen[kind].add(name)
            elif kind == "pool":
                assert name in POOL_OWNERS, (
                    f"{where} builds a process pool; a batch of points "
                    "runs through execute_grid")
                seen[kind].add(name)
            else:
                assert (name, function) in ENVIRONMENT_READERS, (
                    f"{where} reads the environment; take the value as an "
                    "argument and let the entry point read it")
                seen[kind].add((name, function))
    assert seen["store-put"] == set(STORE_WRITERS), "stale allow-list"
    assert seen["pool"] == set(POOL_OWNERS), "stale allow-list"
    assert seen["environ"] == set(ENVIRONMENT_READERS), "stale allow-list"
    reasons = [*STORE_WRITERS.values(), *POOL_OWNERS.values(),
               *ENVIRONMENT_READERS.values()]
    assert all(reason.strip() for reason in reasons)


def test_the_guard_sees_the_idioms():
    source = (
        "import os\n"
        "from repro.orchestrator.store import ResultStore\n"
        "from repro.analysis.cache import default_cache\n"
        "def get(config, store):\n"
        "    root = os.environ.get('REPRO_RESULT_STORE')\n"
        "    result = run(config)\n"
        "    store.put(result)\n"
        "def fan_out(configs):\n"
        "    with ProcessPoolExecutor(max_workers=2) as pool:\n"
        "        return list(pool.map(run, configs))\n")
    assert list(_findings(source)) == [
        ("removed", "default_cache", 3), ("environ", "get", 5),
        ("pool", "fan_out", 9), ("store-put", "get", 7)]
    # The fork figure regeneration once was: a memo that runs live by
    # default.
    source = (
        "class ResultCache:\n"
        "    def __init__(self, runner=run_config):\n"
        "        self._runner = runner\n"
        "def build_figure(figure_id, cache=None):\n"
        "    return FIGURES[figure_id](cache or ResultCache())\n"
        "memo = ResultCache(runner=store.get)\n")
    assert list(_findings(source)) == [
        ("live-memo", "ResultCache.__init__", 2),
        ("removed", "build_figure", 4),
        ("live-memo", "build_figure", 5)]
    # An engine's own ``put`` is nobody's business here.
    assert list(_findings("def load(engine, record):\n"
                          "    engine.put(record.key, record.fields)\n")) == []
