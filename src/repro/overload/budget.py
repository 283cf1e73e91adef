"""Client-side retry governance: token-bucket budget + circuit breaker.

Retries amplify load exactly when the cluster is struggling: a node
sheds 50% of requests, naive clients retry every rejection, and offered
load doubles.  The :class:`RetryBudget` caps cluster-wide retry volume
to a refill rate (the SRE "retry budget" pattern), and the
:class:`CircuitBreaker` skips retries aimed at nodes the chaos
controller has already marked down — those can only end in another
connection refusal or a burned partition timeout.

Both run on *simulated* time and contain no hidden randomness, so runs
stay byte-deterministic under a fixed seed.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["RetryBudget", "CircuitBreaker"]


class RetryBudget:
    """A deterministic token bucket metering retries across a run.

    Tokens accrue at ``rate_per_s`` (simulated seconds) up to ``burst``;
    each retry spends one token via :meth:`try_spend`.  When the bucket
    is empty the retry is denied and the operation fails with whatever
    error triggered it — bounded, predictable degradation instead of a
    retry storm.
    """

    def __init__(self, rate_per_s: float, burst: float):
        if rate_per_s < 0:
            raise ValueError(f"rate_per_s must be >= 0, got {rate_per_s}")
        if burst < 0:
            raise ValueError(f"burst must be >= 0, got {burst}")
        self.rate_per_s = rate_per_s
        self.burst = burst
        self._tokens = burst
        self._last_refill = 0.0
        #: Retries granted / denied (for metrics and reports).
        self.spent = 0
        self.denied = 0

    @property
    def tokens(self) -> float:
        """Tokens available as of the last refill."""
        return self._tokens

    def _refill(self, now: float) -> None:
        elapsed = now - self._last_refill
        if elapsed > 0:
            self._tokens = min(self.burst,
                               self._tokens + elapsed * self.rate_per_s)
        self._last_refill = max(self._last_refill, now)

    def try_spend(self, now: float) -> bool:
        """Spend one retry token at simulated time ``now`` if available."""
        self._refill(now)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            self.spent += 1
            return True
        self.denied += 1
        return False


class CircuitBreaker:
    """Stops retrying nodes the chaos controller has marked down.

    Subscribed to the :class:`~repro.faults.chaos.ChaosController` as a
    listener (``on_node_down`` / ``on_node_up``), it tracks the live-set
    the way a client driver's connection state does.  A retry whose
    triggering fault names a known-down node (``FaultError.node``) is
    short-circuited: it would only burn a connect timeout.
    """

    def __init__(self) -> None:
        self._down: set[str] = set()
        #: Retries skipped because the target node was known down.
        self.tripped = 0

    @property
    def down_nodes(self) -> frozenset[str]:
        """The nodes currently considered down."""
        return frozenset(self._down)

    def on_node_down(self, node) -> None:
        """Chaos-listener hook: ``node`` crashed."""
        self._down.add(node.name)

    def on_node_up(self, node) -> None:
        """Chaos-listener hook: ``node`` recovered."""
        self._down.discard(node.name)

    def allow_retry(self, exc: BaseException) -> bool:
        """Whether retrying after ``exc`` has any chance of succeeding."""
        node: Optional[str] = getattr(exc, "node", None)
        if node is not None and node in self._down:
            self.tripped += 1
            return False
        return True
