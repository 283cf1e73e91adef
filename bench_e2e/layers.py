"""Per-layer metrics of one traced point, and how points add up.

``point_layers`` turns what a :class:`~bench_e2e.trace.Tracer` recorded
into named metrics.  A metric whose layer the point never entered is
left out ("absent"), never reported as a made-up zero.  Everything it
returns is additive over points; ``derive`` adds the ratios.
"""

from __future__ import annotations

from bench_e2e import api

__all__ = ["derive", "point_layers", "self_seconds", "total"]

#: Engine labels whose call count the engine's own counter reports better
#: (a ``flush`` of an empty memtable is a call but not a flush).
_COUNTED_BY_ENGINE = frozenset({"lsm.flush", "lsm.compact"})
_ENGINES = ("lsm.", "btree.", "hashstore.")
#: ``*_s`` metrics that are not a share of the point's wall time:
#: inclusive, timed after the point, and simulated seconds.
_NOT_SELF_TIME = frozenset({"kernel.run_s", "resultstore.hit_s",
                            "resources.wait_sim_s"})


def _both_phases(totals: dict, label: str):
    """``[calls, self seconds]`` of ``label`` over set-up and simulation,
    or ``None`` if it was never called."""
    entries = [phase[label] for phase in totals.values() if label in phase]
    if not entries:
        return None
    return [sum(e[0] for e in entries), sum(e[1] for e in entries)]


def point_layers(tracer) -> dict:
    """The additive per-layer metrics of the point ``tracer`` just watched."""
    totals = tracer.totals
    spans = tracer.spans
    out: dict = {}

    # Storage engines: calls and self time, split by the phase they ran in.
    for phase, bucket in totals.items():
        for label, (calls, self_s) in bucket.items():
            if not label.startswith(_ENGINES):
                continue
            if label not in _COUNTED_BY_ENGINE:
                out[f"{label}s.{phase}"] = calls
            out[f"{label}_s.{phase}"] = self_s
    engines = tracer.captured["lsm.new"]
    if engines:
        at_end = api.engine_counters(engines)
        for name, value in at_end.items():
            in_setup = tracer.setup_counters.get(name, 0)
            out[f"{name}.setup"] = in_setup
            out[f"{name}.sim"] = value - in_setup

    # Phases: self times from the frame stack, inclusive times from spans.
    for label, metric in (("load", "load.self_s"), ("warm", "warm.busy_s"),
                          ("sim_run", "kernel.other_s"),
                          ("serialize", "serialize.busy_s"),
                          ("resultstore.put", "resultstore.put_s")):
        entry = _both_phases(totals, label)
        if entry is not None:
            out[metric] = entry[1]
    deploy = [entry[1] for entry in (_both_phases(totals, "deploy.cluster"),
                                     _both_phases(totals, "deploy.store"))
              if entry is not None]
    if deploy:
        out["deploy.busy_s"] = sum(deploy)
    generator = _both_phases(totals, "generator")
    if generator is not None:
        out["generator.records"], out["generator.busy_s"] = generator
        out["load.records"] = totals["setup"].get("generator", [0])[0]
    for label in ("hdfs.read", "hdfs.append"):
        entry = _both_phases(totals, label)
        if entry is not None:
            out[f"{label}s"] = entry[0]

    # What no wrapper covers, split at the first entry into the simulation:
    # before it, sessions and client threads; after it, the rebuild of the
    # result and the orchestrator's bookkeeping.
    runs = tracer.runs
    root = spans[0]
    covered = sum(span["end"] - span["start"] for span in spans
                  if span["parent"] == root["id"]
                  and span["end"] <= runs[0][0])
    out["kernel.run_s"] = sum(end - start for start, end in runs)
    out["setup.other_s"] = (runs[0][0] - root["start"]) - covered
    out["finish.other_s"] = (_both_phases(totals, "point")[1]
                             - out["setup.other_s"])

    clusters = tracer.captured["deploy.cluster"]
    if clusters:
        out.update(api.cluster_counters(clusters[-1]))
    return out


def self_seconds(layers: dict) -> float:
    """Sum of the layer self times, which should equal the point's traced
    wall time: every host-seconds metric that is not listed as inclusive,
    simulated or timed outside the point."""
    return sum(value for name, value in layers.items()
               if name.removesuffix(".setup").removesuffix(".sim")
               .endswith("_s") and name not in _NOT_SELF_TIME)


def total(dicts: list[dict]) -> dict:
    """Key-wise sum; a key absent everywhere stays absent."""
    out: dict = {}
    for one in dicts:
        for name, value in one.items():
            if value is not None:
                out[name] = out.get(name, 0) + value
    return out


def derive(counts: dict, sim_s: float) -> dict:
    """Ratios of a point or a workload, from its exact counts and the
    untraced host time spent inside ``Simulator.run``."""
    out = {}
    events, ops = counts.get("kernel.events"), counts.get("client.ops")
    if ops:
        out["client.us_per_op"] = 1e6 * sim_s / ops
    if events:
        out["kernel.us_per_event"] = 1e6 * sim_s / events
        if ops:
            out["kernel.events_per_op"] = events / ops
    return out
