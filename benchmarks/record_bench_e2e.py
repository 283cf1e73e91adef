"""``python benchmarks/record_bench_e2e.py <out.json> <label>``: record a
``python -m bench_e2e --out`` file in ``BENCH_E2E.json``, the committed
perf trajectory (a row per workload, replacing ``<label>``'s rows).

The file is the one trajectory: besides the four ``bench_e2e`` workloads
it holds the kernel micro-benchmark's rows (workload ``kernel-micro``,
written by ``python -m benchmarks.bench_kernel --record``), which this
script carries over untouched."""

import json
import statistics
import sys
from pathlib import Path

TRAJECTORY = Path(__file__).resolve().parent.parent / "BENCH_E2E.json"

_CELLS = ("[median, q1, q3] over runs; kernel-micro rows: the best of "
          "the bench's replicas")


def read_rows() -> list:
    """The committed rows, oldest first."""
    if not TRAJECTORY.exists():
        return []
    return json.loads(TRAJECTORY.read_text()).get("rows", [])


def write_rows(rows: list) -> None:
    """Rewrite the trajectory: one row a line, so a perf PR's diff is
    its rows."""
    TRAJECTORY.write_text(
        '{"cells": ' + json.dumps(_CELLS) + ', "rows": [\n'
        + ",\n".join(json.dumps(row) for row in rows) + "\n]}\n")


def _cell(values: list) -> list:
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else values * 3)
    return [round(value, 3) for value in (median, q1, q3)]


def main(out_file: str, label: str) -> None:
    rows = [row for row in read_rows() if row["label"] != label]
    runs = json.loads(Path(out_file).read_text())["runs"]
    for workload in dict.fromkeys(run["workload"] for run in runs):
        group = [run for run in runs if run["workload"] == workload]
        rows.append({
            "label": label, "workload": workload, "runs": len(group),
            "seeds": sorted({run["seed"] for run in group}),
            **{name: _cell([run["end_to_end"][name] for run in group])
               for name in ("wall_s", "setup_s", "sim_s", "peak_rss_mb")},
            "kernel.events_per_op": _cell([
                sum(p["counts"]["kernel.events"] for p in run["points"])
                / sum(p["counts"]["client.ops"] for p in run["points"])
                for run in group])})
    write_rows(rows)


if __name__ == "__main__":
    main(*sys.argv[1:3])
