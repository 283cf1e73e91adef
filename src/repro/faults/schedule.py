"""The fault-schedule DSL.

A :class:`FaultSchedule` is a deterministic plan of infrastructure
faults over simulated time: node crashes (with optional restarts),
network partitions (with optional heals), and slow-disk degradations.
Schedules are built either explicitly at absolute times::

    schedule = (FaultSchedule()
                .crash("server-1", at=2.0, restart_after=3.0)
                .slow_disk("server-2", at=1.0, factor=8.0, duration=2.0))

or drawn from a seeded random process (:meth:`FaultSchedule.random`),
so chaos runs stay exactly reproducible — the same seed yields the same
byte-identical availability timeline, which the determinism tests pin.

The schedule is pure data; :class:`repro.faults.chaos.ChaosController`
executes it against a live cluster.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

__all__ = ["FaultKind", "FaultAction", "FaultSchedule"]


class FaultKind(enum.Enum):
    """The fault vocabulary the chaos controller understands."""

    CRASH = "crash"
    RESTART = "restart"
    PARTITION = "partition"
    HEAL = "heal"
    SLOW_DISK = "slow_disk"
    RESTORE_DISK = "restore_disk"
    #: Gray failure: the node's NIC drops packets / adds latency jitter.
    FLAKY_NIC = "flaky_nic"
    RESTORE_NIC = "restore_nic"
    #: Gray failure: the node is alive but pathologically slow —
    #: invisible to crash-liveness detection (``Node.up`` stays True).
    ZOMBIE = "zombie"
    UNZOMBIE = "unzombie"


#: Kinds that require a node name in :attr:`FaultAction.target`.
_NODE_SCOPED = frozenset({
    FaultKind.CRASH, FaultKind.RESTART, FaultKind.SLOW_DISK,
    FaultKind.RESTORE_DISK, FaultKind.FLAKY_NIC, FaultKind.RESTORE_NIC,
    FaultKind.ZOMBIE, FaultKind.UNZOMBIE,
})


@dataclass(frozen=True)
class FaultAction:
    """One scheduled fault transition."""

    at: float
    kind: FaultKind
    #: Node name for node-scoped faults (crash/restart/slow-disk/zombie).
    target: Optional[str] = None
    #: Partition groups for PARTITION actions.
    groups: tuple[tuple[str, ...], ...] = ()
    #: Disk service-time multiplier for SLOW_DISK actions, or the
    #: whole-node slowdown for ZOMBIE actions.
    factor: float = 1.0
    #: Packet-loss probability for FLAKY_NIC actions.
    loss: float = 0.0
    #: Added latency jitter bound (seconds) for FLAKY_NIC actions.
    jitter_s: float = 0.0

    def __post_init__(self) -> None:
        # Constructed actions are validated here so a malformed fault
        # fails when the schedule is built, not minutes into a run.
        if self.at < 0:
            raise ValueError(f"fault time must be >= 0, got {self.at}")
        if self.kind in _NODE_SCOPED and not self.target:
            raise ValueError(f"{self.kind.value} needs a target node")
        if self.kind is FaultKind.SLOW_DISK and self.factor < 1.0:
            # Covers the factor <= 0 class too: Disk.degrade requires
            # >= 1.0, so anything smaller would fail mid-run.
            raise ValueError(
                f"slow-disk factor must be >= 1.0, got {self.factor}")
        if self.kind is FaultKind.ZOMBIE and self.factor <= 1.0:
            raise ValueError(
                f"zombie slowdown must be > 1.0, got {self.factor}")
        if self.kind is FaultKind.FLAKY_NIC:
            if not 0.0 <= self.loss < 1.0:
                raise ValueError(
                    f"packet-loss probability must be in [0, 1), "
                    f"got {self.loss}")
            if self.jitter_s < 0:
                raise ValueError(
                    f"jitter_s must be >= 0, got {self.jitter_s}")
            if self.loss == 0.0 and self.jitter_s == 0.0:
                raise ValueError("a flaky NIC needs loss > 0 or jitter > 0")

    def describe(self) -> str:
        """A one-line human-readable rendering (chaos log, CLI)."""
        if self.kind is FaultKind.PARTITION:
            sides = " | ".join(",".join(g) for g in self.groups)
            return f"partition [{sides}]"
        if self.kind is FaultKind.HEAL:
            return "heal partition"
        if self.kind is FaultKind.SLOW_DISK:
            return f"slow disk {self.target} x{self.factor:g}"
        if self.kind is FaultKind.RESTORE_DISK:
            return f"restore disk {self.target}"
        if self.kind is FaultKind.FLAKY_NIC:
            return (f"flaky nic {self.target} "
                    f"loss={self.loss:.1%} jitter={self.jitter_s * 1e3:g}ms")
        if self.kind is FaultKind.RESTORE_NIC:
            return f"restore nic {self.target}"
        if self.kind is FaultKind.ZOMBIE:
            return f"zombie {self.target} x{self.factor:g}"
        if self.kind is FaultKind.UNZOMBIE:
            return f"unzombie {self.target}"
        return f"{self.kind.value} {self.target}"


@dataclass
class FaultSchedule:
    """An ordered plan of fault actions over simulated time."""

    _actions: list[FaultAction] = field(default_factory=list)

    def _add(self, action: FaultAction) -> "FaultSchedule":
        if action.at < 0:
            raise ValueError(f"fault time must be >= 0, got {action.at}")
        self._actions.append(action)
        return self

    # -- the DSL -------------------------------------------------------------

    def crash(self, node: str, at: float,
              restart_after: Optional[float] = None) -> "FaultSchedule":
        """Crash ``node`` at time ``at``; optionally restart it later."""
        self._add(FaultAction(at, FaultKind.CRASH, target=node))
        if restart_after is not None:
            if restart_after <= 0:
                raise ValueError("restart_after must be > 0")
            self._add(FaultAction(at + restart_after, FaultKind.RESTART,
                                  target=node))
        return self

    def restart(self, node: str, at: float) -> "FaultSchedule":
        """Restart a previously crashed ``node`` at time ``at``."""
        return self._add(FaultAction(at, FaultKind.RESTART, target=node))

    def partition(self, groups: Sequence[Iterable[str]], at: float,
                  heal_after: Optional[float] = None) -> "FaultSchedule":
        """Split the network into ``groups`` at ``at``; optionally heal."""
        frozen = tuple(tuple(g) for g in groups)
        if len(frozen) < 2:
            raise ValueError("a partition needs at least two groups")
        self._add(FaultAction(at, FaultKind.PARTITION, groups=frozen))
        if heal_after is not None:
            if heal_after <= 0:
                raise ValueError("heal_after must be > 0")
            self._add(FaultAction(at + heal_after, FaultKind.HEAL))
        return self

    def slow_disk(self, node: str, at: float, factor: float,
                  duration: Optional[float] = None) -> "FaultSchedule":
        """Degrade ``node``'s disk by ``factor``; optionally restore."""
        if factor < 1.0:
            raise ValueError(f"slow-disk factor must be >= 1.0, got {factor}")
        self._add(FaultAction(at, FaultKind.SLOW_DISK, target=node,
                              factor=factor))
        if duration is not None:
            if duration <= 0:
                raise ValueError("duration must be > 0")
            self._add(FaultAction(at + duration, FaultKind.RESTORE_DISK,
                                  target=node))
        return self

    def flaky_nic(self, node: str, at: float, loss: float = 0.05,
                  jitter_s: float = 0.0,
                  duration: Optional[float] = None) -> "FaultSchedule":
        """Gray failure: drop a fraction of ``node``'s packets / add jitter."""
        self._add(FaultAction(at, FaultKind.FLAKY_NIC, target=node,
                              loss=loss, jitter_s=jitter_s))
        if duration is not None:
            if duration <= 0:
                raise ValueError("duration must be > 0")
            self._add(FaultAction(at + duration, FaultKind.RESTORE_NIC,
                                  target=node))
        return self

    def zombie(self, node: str, at: float, slowdown: float = 20.0,
               duration: Optional[float] = None) -> "FaultSchedule":
        """Gray failure: ``node`` stays up but runs ``slowdown``x slower."""
        self._add(FaultAction(at, FaultKind.ZOMBIE, target=node,
                              factor=slowdown))
        if duration is not None:
            if duration <= 0:
                raise ValueError("duration must be > 0")
            self._add(FaultAction(at + duration, FaultKind.UNZOMBIE,
                                  target=node))
        return self

    # -- validation ----------------------------------------------------------

    def validate(self, nodes: Sequence[str]) -> None:
        """Reject a schedule that cannot execute against ``nodes``.

        Catches, at build time rather than mid-run: node-scoped actions
        or PARTITION groups naming unknown nodes, and HEAL actions with
        no partition in effect.  Called by the chaos controller when it
        binds the schedule to a concrete cluster.
        """
        known = set(nodes)
        partitioned = False
        for action in self.actions():
            if action.kind in _NODE_SCOPED and action.target not in known:
                raise ValueError(
                    f"fault {action.describe()!r} targets unknown node "
                    f"{action.target!r} (cluster has: "
                    f"{', '.join(sorted(known))})")
            if action.kind is FaultKind.PARTITION:
                unknown = sorted(
                    {name for group in action.groups for name in group}
                    - known)
                if unknown:
                    raise ValueError(
                        f"partition at t={action.at:g} names unknown "
                        f"node(s): {', '.join(unknown)}")
                partitioned = True
            elif action.kind is FaultKind.HEAL:
                if not partitioned:
                    raise ValueError(
                        f"heal at t={action.at:g} has no prior partition "
                        f"to heal")
                partitioned = False

    # -- queries -------------------------------------------------------------

    def actions(self) -> list[FaultAction]:
        """All actions in execution order (time, then insertion order)."""
        ordered = sorted(enumerate(self._actions),
                         key=lambda pair: (pair[1].at, pair[0]))
        return [action for __, action in ordered]

    def __len__(self) -> int:
        return len(self._actions)

    def outage_windows(self, node: str) -> list[tuple[float, float]]:
        """The [crash, restart) intervals scheduled for ``node``.

        An unrestarted crash yields an open interval ending at ``inf``.
        """
        windows: list[tuple[float, float]] = []
        down_since: Optional[float] = None
        for action in self.actions():
            if action.target != node:
                continue
            if action.kind is FaultKind.CRASH and down_since is None:
                down_since = action.at
            elif action.kind is FaultKind.RESTART and down_since is not None:
                windows.append((down_since, action.at))
                down_since = None
        if down_since is not None:
            windows.append((down_since, float("inf")))
        return windows

    # -- seeded-random construction -------------------------------------------

    @classmethod
    def random(cls, seed: int, nodes: Sequence[str], horizon_s: float,
               n_crashes: int = 1,
               restart_probability: float = 1.0) -> "FaultSchedule":
        """A reproducible random chaos plan over ``[0, horizon_s)``.

        Crash times land in the middle 70% of the horizon so the run has
        a pristine lead-in and (usually) a post-recovery tail; an outage
        lasts from 0.5 s to 30% of the horizon.  The same ``seed`` always
        produces the same schedule.
        """
        if not nodes:
            raise ValueError("need at least one node to schedule faults on")
        if horizon_s <= 0:
            raise ValueError("horizon_s must be > 0")
        rng = random.Random(seed)
        max_outage = max(0.5, 0.3 * horizon_s)
        schedule = cls()
        for __ in range(n_crashes):
            target = rng.choice(list(nodes))
            at = rng.uniform(0.15 * horizon_s, 0.85 * horizon_s)
            if rng.random() < restart_probability:
                outage = rng.uniform(0.5, max_outage)
                schedule.crash(target, at=at, restart_after=outage)
            else:
                schedule.crash(target, at=at)
        return schedule
