"""One run of one workload: fresh child passes until the time is up.

Each pass (``passes.run_pass``) runs in its own child process, so peak
memory and heap state are that pass's alone.  A run repeats passes for
``seconds`` seconds and reports the median of each metric over them;
with tracing it alternates untraced and traced passes, takes the
end-to-end metrics from the untraced ones and the per-layer metrics from
the traced ones, and checks that both computed the same results.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

from bench_e2e import api
from bench_e2e.layers import derive, total
from bench_e2e.workloads import WORKLOADS

__all__ = ["DECLARED", "OUT_DIR", "driver_line", "report", "run_workload",
           "summarise"]

#: Everything the benchmark writes goes here (named in ``.gitignore``).
OUT_DIR = api.ROOT / ".bench_e2e_out"

#: The metric and workload declarations: names, units and bounds are
#: stated once, in ``BENCHMARK.json``.
DECLARED = json.loads((api.ROOT / "BENCHMARK.json").read_text())

_END_TO_END = ("wall_s", "setup_s", "sim_s")
_PHASES = ("setup_s", "sim_s", "rest_s")


def _child_pass(workload: str, seed: int, scale: float, traced: bool) -> dict:
    command = [sys.executable, "-m", "bench_e2e", "pass",
               "--workload", workload, "--seed", str(seed),
               "--scale", repr(scale), "--trace", str(int(traced))]
    done = subprocess.run(command, cwd=api.ROOT, stdout=subprocess.PIPE,
                          text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: float) -> dict:
    """Run passes of ``workload`` for ``seconds`` seconds and summarise."""
    started = time.monotonic()
    passes = []
    while True:
        passes.append(_child_pass(workload, seed, scale, False))
        if trace:
            passes.append(_child_pass(workload, seed, scale, True))
        if time.monotonic() - started >= seconds:
            break
    return summarise(passes)


def _median_of_sums(passes: list[dict], key: str) -> float:
    return statistics.median(sum(point[key] for point in one["points"])
                             for one in passes)


def _median_clock(passes: list[dict], phases: tuple) -> float:
    """Like ``_median_of_sums`` over clock seconds as read, before the
    machine's slowdown was divided out."""
    return statistics.median(
        sum(point["raw"][phase] for point in one["points"]
            for phase in phases) for one in passes)


def _summarise_point(records: list[dict]) -> dict:
    """One point over every pass of the run: medians, and what is wrong."""
    untraced = [r for r in records if "layers" not in r]
    traced = [r for r in records if "layers" in r]
    first = records[0]
    failures = sorted({failure for r in records for failure in r["checks"]})
    if any(r["digest"] != first["digest"] for r in records):
        failures.append("passes of one seed (traced or not) computed "
                        "different results")
    if any(r["counts"] != first["counts"] for r in records):
        failures.append("exact counts differ between passes of one seed")
    point = {"name": first["name"], "digest": first["digest"],
             "counts": first["counts"], "checks": failures}
    for key in _END_TO_END:
        point[key] = statistics.median(r[key] for r in untraced)
    point.update(derive(first["counts"], point["sim_s"]))
    if traced:
        point["layers"] = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]}
    return point


def summarise(passes: list[dict]) -> dict:
    """Fold the passes of one run into the run's summary."""
    untraced = [one for one in passes if not one["traced"]]
    traced = [one for one in passes if one["traced"]]
    first = passes[0]
    points = [_summarise_point([one["points"][i] for one in passes])
              for i in range(len(first["points"]))]
    ops = sum(point["counts"]["client.ops"] for point in points)
    failed = sum(point["counts"]["client.ops"] if point["checks"]
                 else point["counts"]["client.errors"] for point in points)
    end_to_end = {key: _median_of_sums(untraced, key) for key in _END_TO_END}
    end_to_end["peak_rss_mb"] = statistics.median(
        one["peak_rss_mb"] for one in untraced)
    summary = {
        "workload": first["workload"], "seed": first["seed"],
        "scale": first["scale"],
        "passes": len(untraced), "traced_passes": len(traced),
        "correct": not any(point["checks"] for point in points),
        "attempted": ops * len(passes), "failed": failed * len(passes),
        "end_to_end": end_to_end,
        # As the clock read them, before the machine's slowdown was divided
        # out: what the run cost here and now, not what it is compared by.
        "raw_end_to_end": {
            "wall_s": _median_clock(untraced, _PHASES),
            "setup_s": _median_clock(untraced, ("setup_s",)),
            "sim_s": _median_clock(untraced, ("sim_s",))},
        "slowdown": statistics.median(one["slowdown"] for one in untraced),
        "points": points,
    }
    if traced:
        counts = total([point["counts"] for point in points])
        layers = total([point["layers"] for point in points])
        layers.update(counts)
        layers.update(derive(counts, end_to_end["sim_s"]))
        layers["host.cpu_s"] = _median_of_sums(untraced, "cpu_s")
        layers["host.slowdown"] = summary["slowdown"]
        layers["trace.overhead_ratio"] = (
            _median_clock(traced, _PHASES)
            / summary["raw_end_to_end"]["wall_s"])
        summary["per_layer"] = layers
        summary["absent"] = sorted(
            metric["name"] for metric in DECLARED["per_layer"]
            if metric["name"] not in layers)
        summary["spans"] = [span for point in traced[-1]["points"]
                            for span in point["spans"]]
    return summary


def driver_line(summary: dict, trace: bool) -> str:
    """The result object the driver reads from the last line of stdout.

    A declared per-layer metric the workload never entered is reported as
    0 there (the object has no place for "absent"); ``report`` and the
    summary's ``absent`` list say which ones those are.
    """
    if trace:
        values = summary["per_layer"]
        declared = DECLARED["per_layer"]
    else:
        values = summary["end_to_end"]
        declared = DECLARED["end_to_end"]
    metrics = {metric["name"]: {"value": values.get(metric["name"], 0),
                                "unit": metric["unit"]}
               for metric in declared}
    return json.dumps({"correct": summary["correct"],
                       "attempted": summary["attempted"],
                       "failed": summary["failed"], "metrics": metrics})


def report(summary: dict) -> str:
    """Every metric by name with its unit, each point's digest, and any
    failed check, for people."""
    units = {metric["name"]: metric["unit"]
             for kind in ("end_to_end", "per_layer")
             for metric in DECLARED[kind]}

    def row(name, value):
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        return f"    {name:<28} {text:>14} {units.get(name, '')}"

    lines = [f"workload {summary['workload']}  seed {summary['seed']}  "
             f"scale {summary['scale']:g}  passes {summary['passes']} "
             f"untraced + {summary['traced_passes']} traced",
             f"  end to end (median over untraced passes, summed over "
             f"points; ops attempted {summary['attempted']}, failed "
             f"{summary['failed']})"]
    lines += [row(name, value)
              for name, value in summary["end_to_end"].items()]
    raw = summary["raw_end_to_end"]
    lines.append(f"    (on the clock: wall {raw['wall_s']:.3f} s, set-up "
                 f"{raw['setup_s']:.3f} s, sim {raw['sim_s']:.3f} s; the "
                 f"machine ran {summary['slowdown']:.3f}x slower than the "
                 f"reference)")
    if "per_layer" in summary:
        lines.append("  per layer (median over traced passes, summed over "
                     "points)")
        lines += [row(name, value)
                  for name, value in sorted(summary["per_layer"].items())]
        lines += [f"    {name:<28} {'absent':>14}"
                  for name in summary["absent"]]
    lines.append("  points")
    for point in summary["points"]:
        lines.append(
            f"    {point['name']:<16} wall {point['wall_s']:.3f} s  "
            f"setup {point['setup_s']:.3f} s  sim {point['sim_s']:.3f} s  "
            f"ops {point['counts']['client.ops']}  "
            f"events/op {point.get('kernel.events_per_op', 0):.1f}  "
            f"sha256 {point['digest']}")
        lines += [f"      FAILED: {failure}" for failure in point["checks"]]
    return "\n".join(lines)
