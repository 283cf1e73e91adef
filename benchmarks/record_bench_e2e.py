"""``python benchmarks/record_bench_e2e.py <out.json> <label>``: record a
``python -m bench_e2e --out`` file in ``BENCH_E2E.json``, the committed
end-to-end trajectory (a row per workload, replacing ``<label>``'s rows)."""

import json
import statistics
import sys
from pathlib import Path

TRAJECTORY = Path(__file__).resolve().parent.parent / "BENCH_E2E.json"


def _cell(values: list) -> list:
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else values * 3)
    return [round(value, 3) for value in (median, q1, q3)]


def main(out_file: str, label: str) -> None:
    old = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else {}
    rows = [row for row in old.get("rows", []) if row["label"] != label]
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
    TRAJECTORY.write_text(  # one row a line, so a perf PR's diff is its rows
        '{"cells": "[median, q1, q3] over runs", "rows": [\n'
        + ",\n".join(json.dumps(row) for row in rows) + "\n]}\n")


if __name__ == "__main__":
    main(*sys.argv[1:3])
