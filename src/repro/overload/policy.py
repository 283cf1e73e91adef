"""The overload-resilience policy: one knob object for the whole stack.

An :class:`OverloadPolicy` bundles the four mechanisms that turn
congestion collapse into graceful degradation:

* ``max_queue`` — bound on every store-executor channel queue (Redis
  event loops, VoltDB sites + sequencer, HBase handler pools) and the
  admission threshold for the Cassandra coordinator and the
  MySQL/Voldemort connection-pool gates;
* ``deadline_s`` — per-operation deadline stamped by the client and
  propagated through the kernel (see ``Simulator.deadline``);
* ``retry_budget_per_s`` / ``retry_budget_burst`` — token-bucket retry
  budget shared by all client threads of a run;
* ``circuit_breaker`` — stop retrying against nodes the chaos
  controller has marked down.

The policy is a plain frozen dataclass with a lossless dict round-trip,
so it serialises portably inside ``BenchmarkConfig.to_dict()`` (and
therefore participates in config content hashing and the on-disk result
store) rather than as an opaque fingerprint.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

__all__ = ["OverloadPolicy"]


@dataclass(frozen=True)
class OverloadPolicy:
    """Configuration for the overload-resilience subsystem."""

    #: Bound on executor-channel queues / admission gates (``None`` =
    #: unbounded; queues grow without limit like the pre-overload stack).
    max_queue: Optional[int] = 64
    #: Per-operation deadline in seconds (``None`` = no deadline).
    deadline_s: Optional[float] = 0.25
    #: Retry-budget refill rate in tokens per simulated second
    #: (``None`` = unmetered retries).
    retry_budget_per_s: Optional[float] = 100.0
    #: Retry-budget bucket size (burst allowance).
    retry_budget_burst: float = 20.0
    #: Whether to stop retrying nodes the chaos controller marked down.
    circuit_breaker: bool = True

    def __post_init__(self) -> None:
        if self.max_queue is not None and self.max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {self.max_queue}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(
                f"deadline_s must be positive, got {self.deadline_s}")
        if self.retry_budget_per_s is not None and self.retry_budget_per_s < 0:
            raise ValueError(
                f"retry_budget_per_s must be >= 0, "
                f"got {self.retry_budget_per_s}")
        if self.retry_budget_burst < 0:
            raise ValueError(
                f"retry_budget_burst must be >= 0, "
                f"got {self.retry_budget_burst}")

    def to_dict(self) -> dict:
        """A JSON-portable projection (lossless; see :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "OverloadPolicy":
        """Reconstruct a policy from its :meth:`to_dict` projection."""
        return cls(**payload)
