"""``python -m bench_e2e compare A.json B.json``: did B move anything?

Both files hold runs appended with ``--out`` (A: the parent commit, B:
the change), ideally ten or more alternating pairs.  For each workload
and end-to-end metric it prints both medians and quartiles, the change
of the median, and a verdict against the bound fixed in
``BENCHMARK.json``:

* ``unresolved`` — the run-to-run spread (distance between the quartiles
  as a share of the median) of either side is wider than the bound, or
  there are too few runs to know it;
* ``regressed`` — B's median is worse than A's by more than the bound;
* ``improved`` — B wins at least nine tenths of the pairs (ties count
  for neither) and the medians differ by more than the distance between
  A's own quartiles;
* ``unchanged`` — none of the above.

Each workload is its own row: no combined score.  Below, per point,
whether the simulated statistics are identical (digest and every exact
count, on every seed both files ran).
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

from bench_e2e.runner import DECLARED

__all__ = ["compare", "verdict"]


def _quartiles(values: list[float]):
    """``(q1, median, q3)``, or ``None`` quartiles with under two values."""
    median = statistics.median(values)
    if len(values) < 2:
        return None, median, None
    q1, __, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(before: list[float], after: list[float], bound: float,
            lower_is_better: bool = True) -> str:
    """The verdict for one metric on one workload (see the module doc)."""
    q1_a, median_a, q3_a = _quartiles(before)
    q1_b, median_b, q3_b = _quartiles(after)
    if q1_a is None or q1_b is None:
        return "unresolved"
    if max((q3_a - q1_a) / median_a, (q3_b - q1_b) / median_b) > bound:
        return "unresolved"
    sign = 1 if lower_is_better else -1
    worse_by = sign * (median_b - median_a)
    if worse_by > bound * median_a:
        return "regressed"
    pairs = list(zip(before, after))
    wins = sum(sign * (b - a) < 0 for a, b in pairs)
    if wins >= 0.9 * len(pairs) and -worse_by > q3_a - q1_a:
        return "improved"
    return "unchanged"


def _load(path: Path) -> dict[str, list[dict]]:
    by_workload = defaultdict(list)
    for run in json.loads(path.read_text())["runs"]:
        by_workload[run["workload"]].append(run)
    return by_workload


def _simulated(run: dict) -> dict:
    return {point["name"]: (point["digest"], point["counts"])
            for point in run["points"]}


def compare(before_path: Path, after_path: Path) -> str:
    """The comparison table of two ``--out`` files, as text."""
    before, after = _load(before_path), _load(after_path)

    def quartile_text(values):
        q1, median, q3 = _quartiles(values)
        if q1 is None:
            return f"{median:.4g} (1 run)"
        return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"

    lines = [f"A = {before_path} (before)   B = {after_path} (after)",
             f"{'workload':<12} {'metric':<12} {'runs':>5}  "
             f"{'A median [q1, q3]':<28} {'B median [q1, q3]':<28} "
             f"{'delta':>8} {'bound':>6}  verdict"]
    identical = []
    for workload in DECLARED["workloads"]:
        name = workload["name"]
        runs_a, runs_b = before.get(name), after.get(name)
        if not runs_a or not runs_b:
            lines.append(f"{name:<12} (not in both files)")
            continue
        for metric in DECLARED["end_to_end"]:
            key = metric["name"]
            values_a = [run["end_to_end"][key] for run in runs_a]
            values_b = [run["end_to_end"][key] for run in runs_b]
            median_a = statistics.median(values_a)
            delta = (statistics.median(values_b) - median_a) / median_a
            lines.append(
                f"{name:<12} {key:<12} {len(values_a):>2}/{len(values_b):<2}  "
                f"{quartile_text(values_a):<28} "
                f"{quartile_text(values_b):<28} "
                f"{delta:>+8.1%} {metric['bound']:>6.0%}  "
                + verdict(values_a, values_b, metric["bound"],
                          metric["better"] == "lower"))
        by_seed_b = {(run["seed"], run["scale"]): _simulated(run)
                     for run in runs_b}
        same: dict[str, bool] = {}
        for run in runs_a:
            other = by_seed_b.get((run["seed"], run["scale"]))
            if other is None:
                continue
            for point, facts in _simulated(run).items():
                same[point] = same.get(point, True) and other.get(point) == facts
        if not same:
            identical.append(f"  {name}: no seed was run on both sides")
        identical += [f"  {name} {point}: {'yes' if ok else 'NO'}"
                      for point, ok in same.items()]
    lines.append("simulated statistics identical (digest and exact counts, "
                 "same seed and scale):")
    return "\n".join(lines + identical)
