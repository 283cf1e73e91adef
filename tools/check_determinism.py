#!/usr/bin/env python3
"""Every export must be byte-identical when the same command runs twice.

Each row of :data:`CHECKS` is one ``apmbench`` command line with an
``--export``.  It is run twice, each time in a fresh interpreter (so a
leak of ``hash()`` randomisation, a process-global counter or wall-clock
state shows), into a temporary directory, and the two exports are
compared byte for byte.  A row may give the second run extra arguments
where the point is that they must *not* matter: the audit sweep at
``--jobs 2``, the planner against a second, empty result store (so it
re-simulates instead of replaying blobs), and the grid — the one batch
path, with two skipped points in its bytes — with both at once (and
again over the sharded MySQL scan and the multi-file HBase get, over
the Cassandra and VoltDB loads, and over the VoltDB, Cassandra and HBase
scans).

Exit status 0 when all rows agree; otherwise 1, naming the first command
whose exports differ (or that failed outright — a non-zero exit of
``apmbench audit`` is a failed audit, and fails this check too).

    python tools/check_determinism.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: ``(name, command line, first run's extras, second run's extras)``;
#: ``{tmp}`` is the scratch directory.
CHECKS = (
    ("overload",
     "overload -s redis -n 1 --records 2000 --ops 600 --multipliers 1,2 "
     "--duration 0.5 --warmup 0.1 --deadline 0.05 --max-queue 16 "
     "--no-sustained", "", ""),
    # Arrivals spaced by a shape's instantaneous rate, and the queue
    # monitor sampling beside them.
    ("shaped",
     "overload -s redis -n 1 --records 2000 --ops 600 --multipliers 1,2 "
     "--duration 0.5 --warmup 0.1 --deadline 0.05 --max-queue 16 "
     "--no-sustained --shape flash:at=0.2,multiplier=3", "", ""),
    # VoltDB open loop: the arrivals share the sessions, several in
    # flight on each, and every one picks its entry host round-robin.
    ("open-voltdb",
     "overload -s voltdb -n 2 --records 1000 --ops 400 --multipliers 1.5 "
     "--duration 0.3 --warmup 0.05 --deadline 0.05 --max-queue 16 "
     "--no-sustained --protected-only", "", ""),
    ("control",
     "control -s redis --rate 800 --duration 6 "
     "--shape diurnal:period=6,trough=0.25 --max-nodes 2 --records 1000 "
     "--kill-at 4", "", ""),
    ("obs",
     "obs -s redis -n 1 --records 500 --rate 600 --duration 1.5 "
     "--crash server-0 --at 0.5 --restart-after 0.5", "", ""),
    ("audit", "audit -s cassandra --fault crash", "", ""),
    # R + W > N: the replicated client fan-out, and the audit passes.
    ("audit-quorum",
     "audit -s voldemort --fault partition -N 3 -W 2 -R 2", "", ""),
    ("audit-sweep", "audit --sweep", "", "--jobs 2"),
    ("plan",
     "plan --users 50000 --stores redis,voltdb --hardware paper-m "
     "--records 2000 --ops 1000 --warmup 100",
     "--store {tmp}/plan-store-1", "--store {tmp}/plan-store-2"),
    ("grid",
     "grid --stores redis,voldemort --workloads R,RS --nodes 1,2 "
     "--records 300 --ops 150 --warmup 20",
     "--store {tmp}/grid-store-1", "--store {tmp}/grid-store-2 --jobs 2"),
    # The two read paths that discard work: at four nodes a MySQL scan
    # is the sharded fan-out, and 8 800 records are three flush rounds,
    # so an HBase get probes three store files a region.
    ("grid-reads",
     "grid --stores mysql,hbase --workloads R,RSW --nodes 1,4 "
     "--records 2200 --ops 150 --warmup 20",
     "--store {tmp}/reads-store-1", "--store {tmp}/reads-store-2 --jobs 2"),
    # The loads: 4 500 records a node are two Cassandra load rounds at
    # one node and three at two, each flushed from a memtable no scan
    # sorted, and a VoltDB load fills each partition's dict.
    ("grid-loads",
     "grid --stores cassandra,voltdb --workloads R,W --nodes 1,2 "
     "--records 4500 --ops 150 --warmup 20",
     "--store {tmp}/loads-store-1", "--store {tmp}/loads-store-2 --jobs 2"),
    # The scans: VoltDB's multi-partition scan merges every site's rows,
    # and 4 400 records a node are three load rounds, so a Cassandra or
    # HBase scan folds three runs and a memtable.
    ("grid-scans",
     "grid --stores voltdb,cassandra,hbase --workloads RS --nodes 2 "
     "--records 4400 --ops 150 --warmup 20",
     "--store {tmp}/scans-store-1", "--store {tmp}/scans-store-2 --jobs 2"),
)


def _export(name: str, command: str, extras: str, tmp: Path,
            run: int) -> bytes:
    out = tmp / f"{name}-{run}.json"
    argv = [sys.executable, "-m", "repro.cli", *command.split(),
            *extras.format(tmp=tmp).split(), "--export", str(out)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(argv, cwd=tmp, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if done.returncode != 0:
        print(done.stdout)
        raise SystemExit(f"FAILED: apmbench {command} {extras} exited "
                         f"{done.returncode}")
    return out.read_bytes()


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="apmbench-determinism-") as tmp:
        for name, command, first, second in CHECKS:
            exports = [_export(name, command, extras, Path(tmp), run)
                       for run, extras in enumerate((first, second), 1)]
            if exports[0] != exports[1]:
                print(f"NOT DETERMINISTIC: apmbench {command} "
                      f"[{first or '-'} | {second or '-'}] produced two "
                      "different exports")
                return 1
            print(f"ok  {name:<12} {len(exports[0]):>8} bytes, identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
