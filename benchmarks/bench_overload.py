"""Extension: goodput under overload, protections on vs. off.

The paper's closed-loop YCSB harness cannot overload a store: offered
load falls automatically as latency rises.  Real APM ingest is
open-loop (Section 2) — metric inserts arrive on a schedule whether the
store keeps up or not.  This bench drives every store to twice its
sustainable rate with deterministic open-loop arrivals and compares the
overload-resilience subsystem (bounded queues, deadlines, admission
control, retry budgets) against the unprotected stack:

* protected, the store keeps serving — goodput at 2x offered load stays
  at or near the saturation rate while excess arrivals are shed at
  admission or expired at their deadline;
* unprotected, queues grow without bound and per-op latency follows, so
  in-SLO goodput collapses even though raw completions continue.

The saturation probes are derived inside ``find_saturation``, so they
get-or-run one at a time through the shared on-disk result store; the
open-loop points themselves are cheap and always run live.
"""

import pytest

from repro.analysis.cache import ResultCache
from repro.orchestrator import execute_grid
from repro.overload import OverloadPolicy
from repro.overload.openloop import goodput_sweep
from repro.stores.registry import STORE_NAMES
from repro.ycsb.runner import BenchmarkConfig
from repro.ycsb.workload import WORKLOAD_R

#: Deadline doubling as the SLO for both arms of the sweep.  Workload R
#: (95% reads) keeps Redis clear of its insert-OOM failure mode, which
#: is orthogonal to overload behaviour.
DEADLINE_S = 0.1
POLICY = OverloadPolicy(max_queue=32, deadline_s=DEADLINE_S,
                        retry_budget_per_s=200.0)


@pytest.fixture
def cache(store):
    def get_or_run(config):
        outcome, = execute_grid([config], store=store)
        return outcome.result

    return ResultCache(runner=get_or_run)


def _sweep(store, cache, profile):
    config = BenchmarkConfig(
        store=store, workload=WORKLOAD_R, n_nodes=1,
        records_per_node=min(profile.records_per_node, 6_000),
        measured_ops=min(profile.measured_ops, 1500),
        warmup_ops=300, overload=POLICY,
    )
    return goodput_sweep(
        config, multipliers=(1.0, 2.0), duration_s=0.5, warmup_s=0.1,
        cache=cache, use_sustained=False,
    )


def test_overload_goodput_all_stores(benchmark, cache, profile):
    """At 2x saturation, protection must preserve >= 70% of peak goodput
    for every store while the unprotected stack collapses."""

    def run_all():
        return {store: _sweep(store, cache, profile)
                for store in STORE_NAMES}

    sweeps = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print()
    failures = []
    for store, sweep in sweeps.items():
        rate = sweep.saturation.rate
        protected = sweep.protected[-1]     # the 2x point
        unprotected = sweep.unprotected[-1]
        ratio = protected.goodput / rate if rate else 0.0
        bare_ratio = unprotected.goodput / rate if rate else 0.0
        print(f"{store:10s} saturation {rate:9,.0f} ops/s | 2x goodput: "
              f"protected {protected.goodput:9,.0f} ({ratio:5.1%})  "
              f"unprotected {unprotected.goodput:9,.0f} "
              f"({bare_ratio:5.1%}, max queue "
              f"{unprotected.max_queue_depth})")
        if ratio < 0.70:
            failures.append(f"{store}: protected goodput {ratio:.1%} "
                            "of saturation (< 70%)")
        # Collapse evidence: the unprotected stack's backlog dwarfs the
        # protected bound and its goodput falls below the protected arm.
        if unprotected.max_queue_depth <= protected.max_queue_depth:
            failures.append(f"{store}: no unbounded queue growth without "
                            "protection")
        if unprotected.goodput >= protected.goodput:
            failures.append(f"{store}: protection did not improve "
                            "goodput")
    assert not failures, "\n".join(failures)
