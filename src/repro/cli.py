"""Command-line interface: ``apmbench``.

Subcommands::

    apmbench list                      # stores, workloads, figures
    apmbench run -s cassandra -w R -n 4
    apmbench run -s redis -n 4 --duration 8 --crash server-1 --at 2
    apmbench reproduce --figures fig3 --chart --check
    apmbench reproduce --figures all --jobs 8   # every paper artefact
    apmbench grid --stores redis,mysql --workloads R,RW --nodes 1,2
    apmbench overload -s redis -n 1 --multipliers 0.5,1,1.5,2
    apmbench overload -s redis -n 1 --shape flash:at=0.5,multiplier=4
    apmbench control -s redis --rate 1600 --shape diurnal --kill-at 9
    apmbench obs -s redis --rate 1200 --crash server-0 --restart-after 1
    apmbench verify-figures apmbench-results/figures
    apmbench plan --users 2000000 --slo write:p99:0.05 --dry-run

Everything runs on the simulated substrate; no external services are
required.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import repro
from repro.analysis.figures import FIGURES, active_profile
from repro.analysis.report import render_figure
from repro.faults.schedule import FaultSchedule
from repro.sim.cluster import CLUSTER_D, CLUSTER_M
from repro.stores.registry import STORE_NAMES
from repro.ycsb.runner import BenchmarkConfig, run_config
from repro.ycsb.workload import WORKLOADS

__all__ = ["main"]

_CLUSTERS = {"M": CLUSTER_M, "D": CLUSTER_D}


class _UsageError(Exception):
    """Arguments argparse accepted but the command cannot use: ``main``
    prints the message to stderr and exits 2."""


def _workload(name: str):
    if name not in WORKLOADS:
        raise _UsageError(f"unknown workload {name!r} (have "
                          f"{', '.join(WORKLOADS)})")
    return WORKLOADS[name]


def _store_names(text: str) -> tuple:
    stores = tuple(s.strip() for s in text.split(","))
    unknown = [s for s in stores if s not in STORE_NAMES]
    if unknown:
        raise _UsageError(f"unknown store(s) {', '.join(unknown)} (have "
                          f"{', '.join(STORE_NAMES)})")
    return stores


def _point_config(args: argparse.Namespace, **fields) -> BenchmarkConfig:
    """The benchmark point ``-s/-w/-n/-c/--records/--seed`` name."""
    return BenchmarkConfig(**{
        "store": args.store, "workload": WORKLOADS[args.workload],
        "n_nodes": args.nodes, "cluster_spec": _CLUSTERS[args.cluster],
        "records_per_node": args.records, "seed": args.seed, **fields})


def _shape(text):
    """The arrival shape ``--shape`` names; ``None`` for constant rate."""
    from repro.overload import parse_shape

    try:
        return parse_shape(text) if text else None
    except ValueError as error:
        raise _UsageError(error) from None


def _node_names(args: argparse.Namespace) -> list:
    return [f"server-{i}" for i in range(args.nodes)]


def _crash_schedule(args: argparse.Namespace) -> FaultSchedule | None:
    """Crash each ``--crash`` node at ``--at``, restarting per
    ``--restart-after``.

    No ``--crash`` is no schedule at all, not an empty one: the schedule
    is part of the config's identity.
    """
    if not args.crash:
        return None
    nodes = _node_names(args)
    schedule = FaultSchedule()
    for target in args.crash:
        if target not in nodes:
            raise _UsageError(
                f"unknown node {target!r} (have {', '.join(nodes)})")
        schedule.crash(target, at=args.at, restart_after=args.restart_after)
    return schedule


def _add_point_arguments(parser: argparse.ArgumentParser, order: str, *,
                         store=None, nodes=None, nodes_help=None,
                         records=None, records_help=None,
                         ops=None, ops_help=None) -> None:
    """Declare the options naming a benchmark point, in ``order``.

    What each option is lives here, once; defaults and help wording are
    the subcommand's.  So is the order: ``--help`` lists options as
    declared, and every subcommand's text is pinned
    (``tests/cli_golden.json``).  ``store=None`` makes ``-s`` required.
    """
    declared = {
        "store": (("-s", "--store"),
                  {"choices": STORE_NAMES,
                   **({"required": True} if store is None
                      else {"default": store})}),
        "workload": (("-w", "--workload"),
                     {"choices": list(WORKLOADS), "default": "R"}),
        "nodes": (("-n", "--nodes"),
                  {"type": int, "default": nodes, "help": nodes_help}),
        "cluster": (("-c", "--cluster"),
                    {"choices": tuple(_CLUSTERS), "default": "M"}),
        "records": (("--records",),
                    {"type": int, "default": records, "help": records_help}),
        "ops": (("--ops",), {"type": int, "default": ops, "help": ops_help}),
        "seed": (("--seed",), {"type": int, "default": 42}),
    }
    for name in order.split():
        flags, kwargs = declared[name]
        parser.add_argument(*flags, **kwargs)


def _write_export(path, text: str, what: str = "") -> Path:
    """Write ``text`` to ``path``, creating its directory; announce it
    when ``what`` names the artefact."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text)
    if what:
        print(f"\nwrote {what} to {out}")
    return out


def _json_text(document) -> str:
    """A JSON document as every subcommand renders one: sorted keys,
    two-space indent."""
    return json.dumps(document, indent=2, sort_keys=True)


def _write_json(path, document, what: str = "") -> Path:
    """Write a JSON export, the one way every subcommand does:
    :func:`_json_text` and one final newline."""
    return _write_export(path, _json_text(document) + "\n", what)


def _cmd_list(args: argparse.Namespace) -> int:
    print("stores:    " + ", ".join(STORE_NAMES))
    print("workloads: " + ", ".join(WORKLOADS))
    print("figures:   " + ", ".join(FIGURES))
    print(f"profile:   {active_profile().name} "
          "(set REPRO_BENCH_PROFILE=paper for the full sweep)")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.random and args.duration is None:
        raise _UsageError("--random needs --duration")
    schedule = (FaultSchedule.random(args.seed, _node_names(args),
                                     args.duration, n_crashes=args.random)
                if args.random else _crash_schedule(args))
    replication = {"replication_factor": args.rf,
                   "consistency_level": args.consistency}
    store_kwargs = {k: v for k, v in replication.items() if v is not None}
    if store_kwargs and args.store != "cassandra":
        raise _UsageError("--rf/--consistency only apply to cassandra")
    # A timed run measures from t=0, so fault times are measured times.
    timed = ({} if args.duration is None
             else {"duration_s": args.duration, "warmup_ops": 0})
    config = _point_config(
        args, measured_ops=args.ops, fault_schedule=schedule,
        availability_window_s=args.window, store_kwargs=store_kwargs,
        trace_sample_every=args.trace_sample if args.trace else None,
        metrics_interval_s=args.metrics_interval if args.metrics else None,
        **timed)
    result = run_config(config)
    row = result.row()
    print(f"store={row['store']} workload={row['workload']} "
          f"nodes={row['nodes']} cluster={row['cluster']}"
          + ("" if args.duration is None
             else f" duration={args.duration:g}s"))
    if schedule is not None:
        print("fault plan:")
        for when, what in result.fault_log:
            print(f"  t={when:7.3f}  {what}")
        if not result.fault_log:
            print("  (no faults fired inside the run window)")
    print(f"throughput: {row['throughput_ops']:,.0f} ops/s "
          f"({result.connections} connections)")
    print(f"latency ms: read={row['read_ms']} write={row['write_ms']} "
          f"scan={row['scan_ms']}")
    if row["errors"] or schedule is not None:
        print(f"errors:     {row['errors']} ({row['error_pct']}% of "
              "measured ops)")
        for op, histogram in sorted(result.stats.histograms.items(),
                                    key=lambda pair: pair[0].value):
            if histogram.errors:
                rate = 100.0 * histogram.errors / histogram.count
                print(f"  {op.value}: {histogram.errors} errors "
                      f"({rate:.2f}%)")
    if schedule is not None:
        fault_windows = [window for name in _node_names(args)
                         for window in schedule.outage_windows(name)]
        print()
        print(result.timeline.render(fault_windows=fault_windows))
    if args.trace:
        from repro.analysis.trace_export import write_chrome_trace

        print()
        if result.breakdown is not None:
            print(result.breakdown.render(
                title=f"latency attribution: {row['store']}"))
        else:
            print("no operations were sampled (run too short for the "
                  "sample rate)")
        path = write_chrome_trace(result.traces, args.trace_out)
        print(f"wrote {len(result.traces)} traces to {path} "
              "(load in chrome://tracing or ui.perfetto.dev)")
    if args.metrics and result.metrics is not None:
        from repro.analysis.provenance import stamp

        print()
        print(result.metrics.render())
        base = Path(args.metrics_out)
        csv_path = _write_export(base.with_suffix(".csv"),
                                 result.metrics.to_csv())
        prom_path = _write_export(base.with_suffix(".prom"),
                                  result.metrics.to_prometheus())
        json_path = _write_json(
            base.with_suffix(".json"),
            stamp(result.metrics.to_payload(), result.config))
        print(f"wrote metrics to {csv_path} (timeseries), {prom_path} "
              f"(snapshot), {json_path} (report)")
    return 0


def _print_check(violations: list, ok: str) -> int:
    """Print each expectation ``violations`` names, or ``ok`` when there
    is none; the exit status either way."""
    for violation in violations:
        print(f"EXPECTATION FAILED: {violation}")
    if not violations:
        print(ok)
    return 1 if violations else 0


def _make_progress_printer():
    """A progress callback printing one line per point with a live ETA."""
    import time

    walls: list[float] = []
    started = time.perf_counter()

    def progress(done: int, total: int, outcome) -> None:
        if outcome.cached:
            print(f"[{done:3d}/{total}] {outcome.config.label():40s} "
                  "cache hit")
            return
        walls.append(outcome.wall_s)
        elapsed = time.perf_counter() - started
        rate = done / elapsed if elapsed > 0 else 0.0
        remaining = (total - done) / rate if rate > 0 else 0.0
        print(f"[{done:3d}/{total}] {outcome.config.label():40s} "
              f"{outcome.wall_s:6.2f}s   ETA {remaining:5.0f}s")

    return progress


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.analysis.figures import expand_figure_ids, profile_by_name
    from repro.orchestrator import reproduce

    try:
        figures = expand_figure_ids(args.figures)
    except ValueError as error:
        raise _UsageError(error) from None
    profile = (profile_by_name(args.profile) if args.profile
               else active_profile())
    if args.dry_run:
        report = reproduce(figures, profile=profile, store=args.store,
                           jobs=args.jobs, dry_run=True)
        print(report.plan.describe())
        return 0
    report = reproduce(
        figures, profile=profile, store=args.store,
        out_dir=args.out, jobs=args.jobs,
        check=args.check, progress=_make_progress_printer(),
    )
    for data in report.data.values():
        print()
        print(render_figure(data, chart=args.chart))
    print()
    print(f"figures:   {len(report.figures)} rebuilt "
          f"({', '.join(report.figures)})")
    print(f"points:    {report.points_executed} executed, "
          f"{report.points_cached} cache hits, "
          f"{report.waves} wave(s)")
    if report.point_walls:
        total = sum(report.point_walls.values())
        slowest = max(report.point_walls.values())
        print(f"compute:   {total:.1f}s across workers "
              f"(slowest point {slowest:.1f}s)")
    print(f"wall:      {report.wall_s:.1f}s with --jobs {args.jobs}")
    print(f"artefacts: {len(report.written)} files in {report.out_dir}")
    if args.check:
        return _print_check(report.violations,
                            "checks:    all paper expectations hold")
    return 0


def _cmd_grid(args: argparse.Namespace) -> int:
    from repro.analysis.sweep import SweepSpec, run_sweep
    from repro.orchestrator import ResultStore

    workloads = tuple(_workload(name.strip())
                      for name in args.workloads.split(","))
    stores = _store_names(args.stores)
    nodes = tuple(int(n) for n in args.nodes.split(","))
    spec = SweepSpec(
        stores=stores, workloads=workloads, node_counts=nodes,
        cluster_spec=_CLUSTERS[args.cluster],
        records_per_node=args.records, measured_ops=args.ops,
        warmup_ops=args.warmup, seed=args.seed,
    )
    store = ResultStore(args.store)
    if args.dry_run:
        configs, skipped = spec.configs(args.derive_seeds)
        hits = [store.contains(config) for config in configs]
        cached = sum(hits)
        print(f"grid: {len(configs)} points ({cached} cached, "
              f"{len(configs) - cached} to run), "
              f"{len(skipped)} skipped")
        for config, hit in zip(configs, hits):
            state = "hit " if hit else "run "
            print(f"  [{state}] {config.label()}  "
                  f"#{config.content_hash()[:12]}")
        return 0
    sweep = run_sweep(spec, jobs=args.jobs, store=store,
                      progress=_make_progress_printer(),
                      derive_seeds=args.derive_seeds)
    if args.export:
        out = _write_json(args.export, sweep.to_dict())
        print(f"wrote {len(sweep.results)} rows to {out}")
    else:
        print(_json_text(sweep.to_dict()))
    return 0


def _cmd_overload(args: argparse.Namespace) -> int:
    from repro.analysis.provenance import stamp
    from repro.overload import OverloadPolicy
    from repro.overload.openloop import goodput_sweep

    policy = OverloadPolicy(
        max_queue=args.max_queue,
        deadline_s=args.deadline,
        retry_budget_per_s=args.retry_budget,
    )
    config = _point_config(args, measured_ops=args.ops, overload=policy)
    multipliers = tuple(float(m) for m in args.multipliers.split(","))
    shape = _shape(args.shape)
    sweep = goodput_sweep(
        config, multipliers=multipliers, duration_s=args.duration,
        warmup_s=args.warmup, use_sustained=not args.no_sustained,
        include_unprotected=not args.protected_only, shape=shape,
    )
    sat = sweep.saturation
    print(f"store={args.store} workload={args.workload} "
          f"nodes={args.nodes} cluster={args.cluster}")
    print(f"saturation: {sat.rate:,.0f} ops/s "
          + (f"(sustained floor; closed-loop peak {sat.throughput:,.0f})"
             if sat.floor else "(closed-loop throughput)"))
    print()
    header = (f"{'offered':>10} {'mode':<12} {'goodput':>10} "
              f"{'in-SLO':>8} {'shed':>8} {'deadline':>9} {'maxq':>6}")
    print(header)
    rows = [(point, "protected") for point in sweep.protected]
    rows += [(point, "unprotected") for point in sweep.unprotected]
    rows.sort(key=lambda pair: (pair[0].offered_rate, pair[1]))
    for point, mode in rows:
        pct = (100.0 * point.in_slo / point.arrivals
               if point.arrivals else 0.0)
        deadline_errors = point.error_kinds.get("deadline", 0)
        print(f"{point.offered_rate:>10,.0f} {mode:<12} "
              f"{point.goodput:>10,.0f} {pct:>7.1f}% {point.shed:>8} "
              f"{deadline_errors:>9} {point.max_queue_depth:>6}")
    if args.export:
        _write_json(args.export, stamp(sweep.to_dict(), config), "sweep")
    return 0


def _cmd_control(args: argparse.Namespace) -> int:
    from repro.control import (ControlPolicy, ControlScenario,
                               run_control_scenario)
    from repro.overload import OverloadPolicy
    from repro.stores.base import ServiceProfile

    shape = _shape(args.shape)
    # A deliberately slow per-op profile keeps demo rates in the
    # hundreds of ops/s so a full diurnal cycle simulates in seconds.
    profile = ServiceProfile(read_cpu=args.op_cpu, write_cpu=args.op_cpu,
                             client_cpu=1e-5, dispatch_cpu=0.0)
    overload = OverloadPolicy(max_queue=args.max_queue, deadline_s=args.slo)

    def config(n_nodes: int) -> BenchmarkConfig:
        return _point_config(args, n_nodes=n_nodes, overload=overload,
                             store_kwargs={"profile": profile})

    policy = ControlPolicy(
        tick_s=args.tick, scale_out_pressure=args.scale_out,
        scale_in_pressure=args.scale_in, sustain_ticks=args.sustain,
        cooldown_s=args.cooldown, min_nodes=args.nodes,
        max_nodes=args.max_nodes, replace_grace_s=args.replace_grace,
        provision_delay_s=args.provision_delay,
    )
    auto = ControlScenario(
        config=config(args.nodes), offered_rate=args.rate,
        duration_s=args.duration, shape=shape, policy=policy,
        slo_s=args.slo, timeline_s=args.timeline, kill_at_s=args.kill_at,
    )
    results = {"autoscaled": run_control_scenario(auto)}
    if not args.no_static:
        static = ControlScenario(
            config=config(args.max_nodes), offered_rate=args.rate,
            duration_s=args.duration, shape=shape, policy=None,
            slo_s=args.slo, timeline_s=args.timeline,
        )
        results["static"] = run_control_scenario(static)

    print(f"store={args.store} workload={args.workload} "
          f"cluster={args.cluster} rate={args.rate:,.0f} ops/s "
          f"shape={args.shape or 'constant'}")
    print(f"{'arm':<12}{'goodput':>10}{'node-s':>10}{'fleet end':>10}"
          f"{'moved MB':>10}{'decisions':>11}")
    for arm, result in results.items():
        print(f"{arm:<12}{result.goodput:>10,.0f}"
              f"{result.node_seconds:>10.1f}{result.n_active_end:>10}"
              f"{result.bytes_moved / 1e6:>10.2f}"
              f"{len(result.decisions):>11}")
    auto_result = results["autoscaled"]
    if auto_result.decisions:
        print("\ndecision log:")
        for decision in auto_result.decisions:
            print(f"  t={decision['t']:7.2f}s {decision['action']:<10} "
                  f"{decision['node']:<10} {decision['reason']}")
    if "static" in results and results["static"].goodput > 0:
        static_result = results["static"]
        print(f"\nautoscaled vs static: "
              f"{auto_result.goodput / static_result.goodput:.1%} of SLO "
              f"goodput at "
              f"{auto_result.node_seconds / static_result.node_seconds:.1%} "
              f"of the node-seconds")
    if args.export:
        payload = {arm: result.to_dict()
                   for arm, result in results.items()}
        _write_json(args.export, payload, "control runs")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs import ObsPolicy, ObsScenario, default_slos, \
        run_obs_scenario
    from repro.overload import OverloadPolicy

    schedule = _crash_schedule(args)
    overload = OverloadPolicy(max_queue=args.max_queue,
                              deadline_s=args.deadline)
    config = _point_config(args, overload=overload, fault_schedule=schedule)
    policy = ObsPolicy(
        slos=default_slos(latency_slo_s=args.slo,
                          latency_target=args.slo_target,
                          availability_target=args.availability_target),
        window_s=args.window, tick_s=args.window,
    )
    scenario = ObsScenario(
        config=config, policy=policy, offered_rate=args.rate,
        duration_s=args.duration, warmup_s=args.warmup,
        shape=_shape(args.shape),
        slo_s=args.slo,
    )
    report = run_obs_scenario(scenario)
    print(report.render())
    if args.export:
        _write_json(args.export, report.to_dict(), "incident report")
    return 0


def _check_replication(scenarios) -> None:
    """A usage error for N/R/W that a scenario's store cannot take."""
    from repro.audit.harness import _store_kwargs

    try:
        for scenario in scenarios:
            _store_kwargs(scenario)
    except ValueError as error:
        raise _UsageError(error) from None


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.audit import (AuditScenario, QuorumSweep, render_sweep,
                             run_audit_scenario, run_quorum_sweep)
    from repro.audit.harness import STANDARD_FAULTS

    replication = args.replication_factor
    if replication is None:
        replication = 3 if args.sweep else 1
    fault = args.fault
    if fault is None:
        fault = "partition" if args.sweep else "crash"
    if fault not in STANDARD_FAULTS:
        raise _UsageError(f"unknown fault scenario {fault!r} (have "
                          f"{', '.join(STANDARD_FAULTS)})")

    if args.sweep:
        points = []
        for token in args.points.split(","):
            r_txt, __, w_txt = token.strip().partition("/")
            try:
                points.append((int(r_txt), int(w_txt)))
            except ValueError:
                raise _UsageError(f"bad --points entry {token!r} "
                                  "(want R/W, e.g. 2/2)") from None
        sweep = QuorumSweep(
            store=args.store, n_nodes=args.nodes,
            replication_factor=replication,
            points=tuple(points), fault=fault, seed=args.seed,
            n_sessions=args.sessions, n_keys=args.keys,
            ops_per_session=args.ops,
        )
        _check_replication(sweep.scenarios())
        payload = run_quorum_sweep(sweep, jobs=args.jobs)
        print(render_sweep(payload))
        if args.export:
            _write_json(args.export, payload, "sweep report")
        return 0 if payload["ok"] else 1

    scenario = AuditScenario(
        store=args.store, n_nodes=args.nodes, n_sessions=args.sessions,
        n_keys=args.keys, ops_per_session=args.ops, seed=args.seed,
        fault=fault,
        replication_factor=replication,
        required_writes=args.write_acks, required_reads=args.read_acks,
    )
    _check_replication([scenario])
    report = run_audit_scenario(scenario)
    print(report.render())
    if args.export:
        _write_json(args.export, report.to_dict(), "audit report")
    return 0 if report.ok else 1


def _cmd_verify_figures(args: argparse.Namespace) -> int:
    from repro.orchestrator import verify_figures

    violations = verify_figures(args.directory, args.figures)
    status = _print_check(violations, "all paper expectations hold")
    if violations:
        print(f"{len(violations)} violation(s)")
    return status


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.orchestrator import ResultStore
    from repro.orchestrator.plan import SECONDS_PER_UNIT
    from repro.plan import (LoadSpec, ValidationSettings,
                            analytical_frontier, build_report,
                            estimate_validation_cost, hardware_profile,
                            parse_slo, validate_frontier)

    workload = _workload(args.workload)
    stores = _store_names(args.stores)
    try:
        profiles = tuple(hardware_profile(name.strip())
                         for name in args.hardware.split(","))
        slos = tuple(parse_slo(text) for text in (args.slo or []))
        spec = LoadSpec(
            users=args.users,
            users_per_agent=args.users_per_agent,
            metrics_per_agent=args.metrics_per_agent,
            flush_interval_s=args.interval,
            workload=workload,
            slos=slos,
            seed=args.seed,
        )
    except ValueError as error:
        raise _UsageError(error) from None
    settings = ValidationSettings(
        records_per_node=args.records,
        measured_ops=args.ops,
        warmup_ops=args.warmup,
    )
    frontier = analytical_frontier(
        spec, stores=stores, profiles=profiles,
        records_per_node=settings.records_per_node,
        max_nodes=args.max_nodes)
    if args.dry_run:
        units = estimate_validation_cost(frontier.entries, spec, settings)
        print(spec.describe())
        print(f"candidates: {frontier.examined} examined, "
              f"{len(frontier.entries)} on the analytical frontier, "
              f"{len(frontier.infeasible)} (store, hardware) pairs "
              f"infeasible, {len(frontier.skipped)} stores skipped")
        print(f"est cost:   {units:,.0f} units "
              f"(~{units * SECONDS_PER_UNIT:,.1f} s single-threaded, "
              "rough)")
        for entry in frontier.entries:
            modeled = entry.modeled
            print(f"  [sim ] {entry.candidate.label():30s} "
                  f"cost={entry.candidate.cost:6.2f}/h "
                  f"modeled={modeled.ops_per_s:10,.0f} ops/s "
                  f"({modeled.binding}-bound, "
                  f"util {entry.utilisation:.0%})")
        for store_name, hw_name, peak in frontier.infeasible:
            print(f"  [skip] {store_name}/{hw_name}: peak modeled "
                  f"{peak:,.0f} ops/s < required "
                  f"{spec.required_ops_per_s:,.0f}")
        for store_name, reason in frontier.skipped:
            print(f"  [skip] {store_name}: {reason}")
        return 0
    store = ResultStore(args.store)
    outcomes = validate_frontier(frontier.entries, spec, settings,
                                 store=store, jobs=args.jobs,
                                 progress=_make_progress_printer())
    report = build_report(spec, settings, frontier, outcomes)
    print()
    print(report.render())
    if args.export:
        _write_json(args.export, report.to_payload(), "plan report")
    return 0 if report.recommended is not None else 2


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``apmbench`` console script."""
    parser = argparse.ArgumentParser(
        prog="apmbench",
        description="Reproduction harness for Rabl et al., VLDB 2012",
    )
    parser.add_argument("--version", action="version",
                        version=f"apmbench {repro.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list stores, workloads, figures")

    run_parser = sub.add_parser(
        "run", help="run one benchmark point, optionally under crashes")
    _add_point_arguments(
        run_parser, "store workload nodes cluster records ops seed",
        nodes=4, records=20_000,
        records_help="records per node (scaled data set)", ops=6000)
    run_parser.add_argument("--duration", type=float, default=None,
                            metavar="SECONDS",
                            help="run this many simulated seconds, "
                                 "measured from t=0, instead of --ops "
                                 "operations")
    run_parser.add_argument("--rf", type=int, default=None,
                            help="replication factor (cassandra)")
    run_parser.add_argument("--consistency", default=None,
                            choices=("one", "quorum", "all"),
                            help="consistency level (cassandra)")
    run_parser.add_argument("--trace", action="store_true",
                            help="sample span traces and report a "
                                 "per-component latency breakdown")
    run_parser.add_argument("--trace-sample", type=int, default=8,
                            metavar="N",
                            help="trace every Nth measured op "
                                 "(default 8)")
    run_parser.add_argument("--metrics", action="store_true",
                            help="collect per-node telemetry and print a "
                                 "utilisation table, bottleneck verdict "
                                 "and sustained-throughput check")
    run_parser.add_argument("--metrics-interval", type=float, default=0.05,
                            metavar="SECONDS",
                            help="sampling interval of the metrics "
                                 "timeseries in simulated seconds "
                                 "(default 0.05)")
    run_parser.add_argument("--metrics-out", default="metrics",
                            metavar="BASENAME",
                            help="basename for metrics exports; writes "
                                 "BASENAME.csv, .prom and .json "
                                 "(default metrics)")
    run_parser.add_argument("--trace-out", default="trace.json",
                            metavar="PATH",
                            help="Chrome-trace JSON output path "
                                 "(default trace.json)")

    faults = run_parser.add_argument_group(
        "faults", "crash nodes during the run; it then also prints the "
                  "fault plan and an availability timeline")
    crashes = faults.add_mutually_exclusive_group()
    crashes.add_argument("--crash", action="append", metavar="NODE",
                         help="node to crash (repeatable)")
    crashes.add_argument("--random", type=int, default=0, metavar="N",
                         help="N seeded-random crashes with restarts "
                              "within --duration")
    faults.add_argument("--at", type=float, default=2.0,
                        help="crash time in simulated seconds (default 2)")
    faults.add_argument("--restart-after", type=float, default=None,
                        help="restart the node this long after the "
                             "crash (default: stays down)")
    faults.add_argument("--window", type=float, default=0.25,
                        help="availability-timeline bucket in simulated "
                             "seconds (default 0.25)")

    reproduce_parser = sub.add_parser(
        "reproduce",
        help="regenerate paper figures through the orchestrator: print "
             "each one's table, write its JSON/CSV")
    reproduce_parser.add_argument("--figures", default="all",
                                  metavar="IDS",
                                  help="comma-separated figure ids, or "
                                       "'all' (default)")
    reproduce_parser.add_argument("-j", "--jobs", type=int, default=1,
                                  help="parallel worker processes "
                                       "(default 1; results are "
                                       "byte-identical at any -j)")
    reproduce_parser.add_argument("--store",
                                  default="apmbench-results/store",
                                  metavar="DIR",
                                  help="on-disk result store shared "
                                       "across runs (default "
                                       "apmbench-results/store)")
    reproduce_parser.add_argument("--out",
                                  default="apmbench-results/figures",
                                  metavar="DIR",
                                  help="directory for figure JSON/CSV "
                                       "exports")
    reproduce_parser.add_argument("--profile",
                                  choices=("smoke", "quick", "paper"),
                                  default=None,
                                  help="cost/fidelity profile (default: "
                                       "REPRO_BENCH_PROFILE or quick)")
    reproduce_parser.add_argument("--dry-run", action="store_true",
                                  help="print the planned grid (points, "
                                       "expected cache hits, estimated "
                                       "cost) without executing")
    reproduce_parser.add_argument("--check", action="store_true",
                                  help="verify the paper's expectations "
                                       "on every rebuilt figure")
    reproduce_parser.add_argument("--chart", action="store_true",
                                  help="also draw each rebuilt figure as "
                                       "an ASCII chart")

    grid_parser = sub.add_parser(
        "grid", help="run an arbitrary store x workload x nodes grid")
    grid_parser.add_argument("--stores", required=True,
                             help="comma-separated store names")
    grid_parser.add_argument("--workloads", required=True,
                             help="comma-separated workload names")
    grid_parser.add_argument("--nodes", required=True,
                             help="comma-separated node counts")
    grid_parser.add_argument("-j", "--jobs", type=int, default=1)
    _add_point_arguments(
        grid_parser, "cluster records ops", records=10_000,
        records_help="records per node (default 10000)", ops=3000,
        ops_help="measured operations (default 3000)")
    grid_parser.add_argument("--warmup", type=int, default=400)
    grid_parser.add_argument("--seed", type=int, default=42)
    grid_parser.add_argument("--derive-seeds", action="store_true",
                             help="give each point an independent seed "
                                  "derived from --seed and the point "
                                  "identity (decorrelates points while "
                                  "staying exactly reproducible)")
    grid_parser.add_argument("--store",
                             default="apmbench-results/store",
                             metavar="DIR")
    grid_parser.add_argument("--export", metavar="FILE",
                             help="write the collected rows as JSON "
                                  "(default: print to stdout)")
    grid_parser.add_argument("--dry-run", action="store_true",
                             help="print the planned points and cache "
                                  "hits without executing")

    overload_parser = sub.add_parser(
        "overload",
        help="goodput-vs-offered-load sweep with overload protections "
             "on and off")
    _add_point_arguments(
        overload_parser, "store workload nodes cluster records ops seed",
        nodes=1, records=5_000,
        records_help="records per node (default 5000)", ops=3000,
        ops_help="measured ops of the saturation probe (default 3000)")
    overload_parser.add_argument("--multipliers", default="0.5,1,1.5,2",
                                 help="offered load as multiples of the "
                                      "saturation rate (default "
                                      "0.5,1,1.5,2)")
    overload_parser.add_argument("--duration", type=float, default=1.0,
                                 help="measurement window per point in "
                                      "simulated seconds (default 1.0)")
    overload_parser.add_argument("--warmup", type=float, default=0.25,
                                 help="open-loop warmup in simulated "
                                      "seconds (default 0.25)")
    overload_parser.add_argument("--max-queue", type=int, default=64,
                                 help="bounded-queue/admission limit "
                                      "(default 64)")
    overload_parser.add_argument("--deadline", type=float, default=0.25,
                                 help="per-op deadline in seconds "
                                      "(default 0.25)")
    overload_parser.add_argument("--retry-budget", type=float,
                                 default=100.0,
                                 help="retry tokens per second "
                                      "(default 100)")
    overload_parser.add_argument("--no-sustained", action="store_true",
                                 help="skip telemetry in the saturation "
                                      "probe (use raw throughput)")
    overload_parser.add_argument("--protected-only", action="store_true",
                                 help="skip the unprotected baseline "
                                      "sweep")
    overload_parser.add_argument("--export", metavar="FILE",
                                 help="write the sweep as stamped JSON")
    overload_parser.add_argument("--shape", metavar="SPEC",
                                 help="arrival shape: diurnal | flash | "
                                      "step, with key=value overrides, "
                                      "e.g. diurnal:period=20,trough=0.25 "
                                      "(default: constant rate)")

    control_parser = sub.add_parser(
        "control",
        help="autoscaling + self-healing demo: the reconciliation loop "
             "vs static peak provisioning")
    _add_point_arguments(
        control_parser, "store workload cluster nodes", store="redis",
        nodes=1, nodes_help="starting (and minimum) fleet of the "
                            "autoscaled arm (default 1)")
    control_parser.add_argument("--max-nodes", type=int, default=4,
                                help="fleet ceiling; also the static "
                                     "arm's size (default 4)")
    control_parser.add_argument("--rate", type=float, default=1600.0,
                                help="peak offered rate in ops/s "
                                     "(default 1600)")
    control_parser.add_argument("--duration", type=float, default=20.0,
                                help="offered-load horizon in simulated "
                                     "seconds (default 20)")
    control_parser.add_argument("--shape", metavar="SPEC",
                                default="diurnal:period=20,trough=0.25",
                                help="arrival shape (default "
                                     "diurnal:period=20,trough=0.25; "
                                     "pass '' for constant rate)")
    _add_point_arguments(
        control_parser, "records seed", records=2000,
        records_help="records per starting node (default 2000)")
    control_parser.add_argument("--slo", type=float, default=0.25,
                                help="latency SLO and per-op deadline "
                                     "(default 0.25)")
    control_parser.add_argument("--op-cpu", type=float, default=2e-3,
                                help="per-op CPU seconds of the demo "
                                     "profile (default 0.002 — one node "
                                     "saturates near 500 ops/s)")
    control_parser.add_argument("--max-queue", type=int, default=32,
                                help="bounded-queue admission limit "
                                     "(default 32)")
    control_parser.add_argument("--tick", type=float, default=0.25,
                                help="reconciliation tick in simulated "
                                     "seconds (default 0.25)")
    control_parser.add_argument("--scale-out", type=float, default=0.8,
                                help="scale-out pressure threshold "
                                     "(default 0.8)")
    control_parser.add_argument("--scale-in", type=float, default=0.55,
                                help="scale-in pressure threshold "
                                     "(default 0.55)")
    control_parser.add_argument("--sustain", type=int, default=2,
                                help="ticks a threshold must hold "
                                     "(default 2)")
    control_parser.add_argument("--cooldown", type=float, default=0.75,
                                help="post-action quiet period "
                                     "(default 0.75)")
    control_parser.add_argument("--provision-delay", type=float,
                                default=0.25,
                                help="node bring-up lead time "
                                     "(default 0.25)")
    control_parser.add_argument("--replace-grace", type=float, default=0.5,
                                help="crash detection-to-replacement "
                                     "grace (default 0.5)")
    control_parser.add_argument("--kill-at", type=float, default=None,
                                help="chaos: crash one node at this "
                                     "simulated time (default: no kill)")
    control_parser.add_argument("--timeline", type=float, default=0.5,
                                help="availability-timeline bucket "
                                     "width (default 0.5)")
    control_parser.add_argument("--no-static", action="store_true",
                                help="skip the static peak-provisioned "
                                     "baseline arm")
    control_parser.add_argument("--export", metavar="FILE",
                                help="write both arms as stamped JSON")

    obs_parser = sub.add_parser(
        "obs",
        help="observed incident run: SLO burn-rate alerts, exemplar "
             "trace IDs, tail-sampled traces, flight-recorder dumps")
    _add_point_arguments(
        obs_parser, "store workload cluster nodes records seed",
        store="redis", nodes=1, records=2000,
        records_help="records per node (default 2000)")
    obs_parser.add_argument("--rate", type=float, default=1200.0,
                            help="offered rate in ops/s (default 1200)")
    obs_parser.add_argument("--duration", type=float, default=3.0,
                            help="measured horizon in simulated seconds "
                                 "(default 3)")
    obs_parser.add_argument("--warmup", type=float, default=0.0,
                            help="unmeasured lead-in (default 0)")
    obs_parser.add_argument("--shape", metavar="SPEC",
                            help="arrival shape: diurnal | flash | step "
                                 "with key=value overrides "
                                 "(default: constant rate)")
    obs_parser.add_argument("--slo", type=float, default=0.05,
                            help="latency SLO threshold in seconds "
                                 "(default 0.05)")
    obs_parser.add_argument("--slo-target", type=float, default=0.99,
                            help="fraction of ops that must meet the "
                                 "latency SLO (default 0.99)")
    obs_parser.add_argument("--availability-target", type=float,
                            default=0.999,
                            help="fraction of ops that must succeed "
                                 "(default 0.999)")
    obs_parser.add_argument("--window", type=float, default=0.25,
                            help="SLO evaluation tick and series window "
                                 "in simulated seconds (default 0.25)")
    obs_parser.add_argument("--deadline", type=float, default=0.05,
                            help="per-op deadline in seconds "
                                 "(default 0.05)")
    obs_parser.add_argument("--max-queue", type=int, default=64,
                            help="bounded-queue admission limit "
                                 "(default 64)")
    obs_parser.add_argument("--crash", action="append", metavar="NODE",
                            help="chaos: node to crash (repeatable)")
    obs_parser.add_argument("--at", type=float, default=1.0,
                            help="crash time in simulated seconds "
                                 "(default 1.0)")
    obs_parser.add_argument("--restart-after", type=float, default=None,
                            help="restart the node this long after the "
                                 "crash (default: stays down)")
    obs_parser.add_argument("--export", metavar="FILE",
                            help="write the full incident report as "
                                 "stamped JSON (byte-deterministic)")

    audit_parser = sub.add_parser(
        "audit",
        help="chaos audit: run a workload under faults and check "
             "durability, session guarantees, linearizability and "
             "staleness from the recorded history")
    audit_parser.add_argument("-s", "--store", choices=STORE_NAMES,
                              default="cassandra")
    audit_parser.add_argument("-n", "--nodes", type=int, default=3)
    audit_parser.add_argument("--fault", default=None,
                              help="standard chaos schedule: none, crash, "
                                   "crash_hard, crash_late, partition, "
                                   "slow_disk, flaky_nic, zombie, combo "
                                   "(default crash, or partition with "
                                   "--sweep)")
    audit_parser.add_argument("--sessions", type=int, default=4,
                              help="closed-loop client sessions (default 4)")
    audit_parser.add_argument("--keys", type=int, default=12,
                              help="distinct keys in the workload "
                                   "(default 12)")
    audit_parser.add_argument("--ops", type=int, default=80,
                              help="paced ops per session (default 80)")
    audit_parser.add_argument("--seed", type=int, default=42)
    audit_parser.add_argument("-N", "--replication-factor", type=int,
                              default=None,
                              help="replicas per key (cassandra/voldemort; "
                                   "default 1, or 3 with --sweep)")
    audit_parser.add_argument("-W", "--write-acks", type=int, default=1,
                              help="write acks required (default 1)")
    audit_parser.add_argument("-R", "--read-acks", type=int, default=1,
                              help="read responses required (default 1)")
    audit_parser.add_argument("--sweep", action="store_true",
                              help="run the quorum R/W sweep instead of a "
                                   "single audit")
    audit_parser.add_argument("--points", default="1/1,2/2",
                              metavar="R/W[,R/W...]",
                              help="sweep grid points (default 1/1,2/2)")
    audit_parser.add_argument("-j", "--jobs", type=int, default=1,
                              help="parallel sweep points (default 1)")
    audit_parser.add_argument("--export", metavar="FILE",
                              help="write the report as stamped JSON "
                                   "(byte-deterministic)")

    verify_parser = sub.add_parser(
        "verify-figures",
        help="check exported figure JSON against the paper's "
             "tolerance bands")
    verify_parser.add_argument("directory",
                               help="directory holding <figure>.json "
                                    "exports")
    verify_parser.add_argument("--figures", default="all", metavar="IDS",
                               help="comma-separated figure ids, or "
                                    "'all' (default)")

    plan_parser = sub.add_parser(
        "plan",
        help="simulation-validated capacity planner: cheapest "
             "store/hardware/node-count meeting the load and SLOs")
    plan_parser.add_argument("--users", type=int, default=2_400_000,
                             help="users the monitored estate serves "
                                  "(default 2.4M, the paper's Section 8 "
                                  "scenario)")
    plan_parser.add_argument("--users-per-agent", type=int, default=10_000,
                             help="users served per monitored node "
                                  "(default 10000)")
    plan_parser.add_argument("--metrics-per-agent", type=int,
                             default=10_000,
                             help="measurements each agent flushes per "
                                  "interval (default 10000)")
    plan_parser.add_argument("--interval", type=float, default=10.0,
                             help="agent flush interval in seconds "
                                  "(default 10)")
    plan_parser.add_argument("-w", "--workload", default="W",
                             help="operation mix the tier must serve "
                                  "(default W, the APM ingest mix)")
    plan_parser.add_argument("--slo", action="append", metavar="SPEC",
                             help="latency target as op:percentile:max-"
                                  "seconds, e.g. read:p99:0.05 "
                                  "(repeatable)")
    plan_parser.add_argument("--stores", default=",".join(STORE_NAMES),
                             help="comma-separated stores to consider "
                                  "(default: all six)")
    plan_parser.add_argument("--hardware",
                             default="paper-m,paper-d,modern-ssd,"
                                     "modern-nvme",
                             help="comma-separated hardware profiles "
                                  "(default: all registered)")
    plan_parser.add_argument("--max-nodes", type=int, default=None,
                             help="cap the node count per candidate "
                                  "(default: each profile's own ceiling)")
    plan_parser.add_argument("--records", type=int, default=20_000,
                             help="records per node loaded in validation "
                                  "runs (default 20000)")
    plan_parser.add_argument("--ops", type=int, default=4000,
                             help="measured operations per validation "
                                  "run (default 4000)")
    plan_parser.add_argument("--warmup", type=int, default=500,
                             help="warmup operations per validation run "
                                  "(default 500)")
    plan_parser.add_argument("-j", "--jobs", type=int, default=1,
                             help="parallel validation workers "
                                  "(default 1; results byte-identical "
                                  "at any level)")
    plan_parser.add_argument("--store", default="apmbench-results/store",
                             metavar="DIR",
                             help="content-addressed result store for "
                                  "validation runs (cache hits on "
                                  "re-plan)")
    plan_parser.add_argument("--seed", type=int, default=42)
    plan_parser.add_argument("--dry-run", action="store_true",
                             help="print the frontier and estimated "
                                  "simulation cost without running "
                                  "anything")
    plan_parser.add_argument("--export", metavar="FILE",
                             help="write the recommendation report as "
                                  "stamped JSON (byte-deterministic)")

    args = parser.parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "run": _cmd_run,
        "reproduce": _cmd_reproduce,
        "grid": _cmd_grid,
        "overload": _cmd_overload,
        "control": _cmd_control,
        "obs": _cmd_obs,
        "audit": _cmd_audit,
        "verify-figures": _cmd_verify_figures,
        "plan": _cmd_plan,
    }
    try:
        return handlers[args.command](args)
    except _UsageError as error:
        print(error, file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
