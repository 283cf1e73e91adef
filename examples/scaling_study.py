#!/usr/bin/env python3
"""A custom scaling study using the sweep API.

Goes beyond the paper's fixed figures: sweeps two contrasting mixes
(read-heavy R and ingest-heavy W) over three cluster sizes for the three
linearly-scaling stores, tabulates the winner per cell, and exports the
series for external plotting.

Run with::

    python examples/scaling_study.py
"""

from repro.analysis.export import write_figure
from repro.analysis.figures import FigureData
from repro.analysis.sweep import SweepSpec, run_sweep
from repro.ycsb import WORKLOAD_R, WORKLOAD_W


def main():
    spec = SweepSpec(
        stores=("cassandra", "voldemort", "hbase"),
        workloads=(WORKLOAD_R, WORKLOAD_W),
        node_counts=(1, 2, 4),
        records_per_node=6_000,
        measured_ops=1500,
    )
    print(f"running {len(spec)} benchmark points...")
    sweep = run_sweep(
        spec,
        progress=lambda done, total, outcome:
            print(f"  [{done:2d}/{total}] {outcome.config.label()}"),
    )

    print("\nper-cell winners (throughput):")
    for workload in spec.workloads:
        for nodes in spec.node_counts:
            best = sweep.best_by(workload.name, nodes)
            print(f"  {workload.name:2s} n={nodes}: {best.config.store:10s}"
                  f" {best.throughput_ops:>9,.0f} ops/s")

    print("\nscaling efficiency (throughput at 4 nodes / 4x single node):")
    for store in spec.stores:
        for workload in spec.workloads:
            points = dict(sweep.series(store, workload.name))
            efficiency = points[4] / (4 * points[1])
            print(f"  {store:10s} {workload.name:2s}: {efficiency:.2f}")

    # Export the Workload W series as a figure for external plotting.
    data = FigureData(
        "scaling_study_w", "Custom scaling study: Workload W",
        "Number of Nodes", "Throughput (Ops/sec)",
        series={store: [(float(n), x)
                        for n, x in sweep.series(store, "W")]
                for store in spec.stores},
    )
    paths = write_figure(data, "examples/output")
    print("\nexported: " + ", ".join(str(p) for p in paths))


if __name__ == "__main__":
    main()
