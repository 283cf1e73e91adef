"""``python -m bench_e2e``: run, trace and compare the point-cost benchmark.

    python -m bench_e2e                              # all four workloads
    python -m bench_e2e --trace --out A.json         # + per-layer, append to A.json
    python -m bench_e2e --workload sim-bound --seed 7 --seconds 20 --trace 0
    python -m bench_e2e compare A.json B.json

With ``--workload`` the last line of stdout is the result object the
benchmark driver reads (see ``BENCHMARK.json``).  The exit code is 1
when any correctness check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path


def _parser() -> argparse.ArgumentParser:
    def add_run_options(parser, workload_required):
        parser.add_argument("--workload", required=workload_required,
                            help="one workload (default: all four)")
        parser.add_argument("--seed", type=int, default=42,
                            help="the only workload argument: every "
                                 "point's seed is derived from it")
        parser.add_argument("--trace", type=int, nargs="?", const=1,
                            default=0, choices=(0, 1),
                            help="also run traced passes and report the "
                                 "per-layer metrics")
        parser.add_argument("--scale", type=float, default=1.0,
                            help="multiply every point's records and "
                                 "operations (tests use a small one)")

    parser = argparse.ArgumentParser(prog="python -m bench_e2e",
                                     description=__doc__.split("\n\n")[0])
    add_run_options(parser, workload_required=False)
    parser.add_argument("--seconds", type=float, default=None,
                        help="keep running passes of a workload for this "
                             "long (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--out", type=Path,
                        help="append each workload's summary to this JSON "
                             "file, for `compare`")
    commands = parser.add_subparsers(dest="command")
    compare = commands.add_parser(
        "compare", help="compare two files written with --out")
    compare.add_argument("before", type=Path)
    compare.add_argument("after", type=Path)
    one_pass = commands.add_parser(
        "pass", help="(internal) one pass in this process, as JSON")
    add_run_options(one_pass, workload_required=True)
    return parser


def _append(path: Path, summary: dict) -> None:
    runs = json.loads(path.read_text())["runs"] if path.exists() else []
    runs.append(summary)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps({"runs": runs}))
    os.replace(tmp, path)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "compare":
        from bench_e2e.compare import compare
        print(compare(args.before, args.after))
        return 0

    from bench_e2e import runner
    from bench_e2e.workloads import WORKLOADS
    if args.workload is not None and args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    runner.OUT_DIR.mkdir(exist_ok=True)

    if args.command == "pass":
        from bench_e2e.passes import run_pass
        print(json.dumps(run_pass(args.workload, args.seed, args.scale,
                                  bool(args.trace), runner.OUT_DIR)))
        return 0

    seconds = (runner.DECLARED["run_seconds"] if args.seconds is None
               else args.seconds)
    names = [args.workload] if args.workload else list(WORKLOADS)
    correct = True
    for name in names:
        summary = runner.run_workload(name, args.seed, seconds,
                                      bool(args.trace), args.scale)
        correct = correct and summary["correct"]
        print(runner.report(summary))
        if args.trace:
            trace_file = runner.OUT_DIR / f"trace-{name}.json"
            trace_file.write_text(json.dumps(summary.pop("spans")))
            print(f"  spans written to {trace_file}")
        if args.out is not None:
            _append(args.out, summary)
        if args.workload:
            print(runner.driver_line(summary, bool(args.trace)))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
