"""Shared harness for the figure benchmarks.

Every bench regenerates one of the paper's artefacts (Table 1, Figures
3-20), prints the series the paper plots, and asserts the paper's
qualitative claims.  The figures that share a sweep (3/4/5, 6/7/8,
9/10/11, 12/13) pay for it once.

Profiles (set ``REPRO_BENCH_PROFILE``):

* ``smoke`` — minutes; 1 and 4 nodes only.
* ``quick`` (default) — tens of minutes; 1/4/8 nodes.
* ``paper`` — the full 1-12 node sweep at higher record counts.

Every figure is built by ``reproduce`` over one on-disk result store
(``apmbench reproduce --store benchmarks/results/store`` shares it), so
points persist across pytest invocations: a second run of any figure
bench, or a second figure off one sweep, is a pure cache hit.  Point
``REPRO_RESULT_STORE`` elsewhere to isolate a run (this file is that
variable's only reader).
"""

import os
from pathlib import Path

import pytest

from repro.analysis.expectations import check_expectations
from repro.analysis.export import write_figure
from repro.analysis.figures import active_profile
from repro.analysis.report import render_table
from repro.orchestrator import ResultStore, reproduce

#: Regenerated series are also written here (pytest captures stdout, so
#: the tee'd run log alone would not show them) — by this file, not by
#: ``reproduce``: its exports are stamped, the tracked ones are not.
RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def store():
    return ResultStore(os.environ.get("REPRO_RESULT_STORE",
                                       str(RESULTS_DIR / "store")))


@pytest.fixture(scope="session")
def profile():
    return active_profile()


def regenerate(figure_id, benchmark, store, profile):
    """Build a figure once under pytest-benchmark and verify its shape."""
    report = benchmark.pedantic(
        reproduce, args=([figure_id],),
        kwargs={"profile": profile, "store": store, "out_dir": None},
        rounds=1, iterations=1,
    )
    data = report.data[figure_id]
    table = render_table(data)
    print()
    print(table)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{figure_id}.txt").write_text(
        f"profile: {profile.name}\n{table}\n")
    write_figure(data, RESULTS_DIR)
    violations = check_expectations(data)
    assert not violations, "\n".join(violations)
    return data
