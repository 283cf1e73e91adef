"""Time-varying arrival shapes for the open-loop harness.

The constant-rate open loop of :mod:`repro.overload.openloop` answers
"what happens at X ops/s forever" — the right question for goodput
sweeps, the wrong one for provisioning.  Real APM ingest follows the
monitored systems' traffic: a diurnal swing between a nightly trough
and a daily peak, flash crowds when an incident fans out, and step
changes when a new system group comes online (the paper's Section 2
workload is the aggregate of thousands of such agents).

Each shape maps simulated time to an instantaneous arrival rate via
:meth:`ArrivalShape.rate_at`; the open-loop driver integrates it by
spacing consecutive arrivals ``1 / rate_at(now)`` apart.  Shapes are
frozen dataclasses with ``to_dict`` projections so configurations
remain provenance-stampable and byte-deterministic.

A small registry (:data:`SHAPES`, :func:`parse_shape`) lets the CLI and
the control benchmark select shapes by name, with ``key=value``
overrides: ``diurnal``, ``diurnal:period=30,trough=0.2``,
``flash:at=5,duration=3,multiplier=4``, ``step:at=10,factor=2``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import ClassVar

__all__ = ["ArrivalShape", "DiurnalShape", "FlashCrowdShape", "SHAPES",
           "StepShape", "parse_shape"]


@dataclass(frozen=True)
class ArrivalShape:
    """Base class: a deterministic rate profile over simulated time.

    ``base_rate`` is the harness's ``offered_rate`` — shapes scale it,
    so one sweep parameter still controls overall intensity.
    """

    #: The shape's name: its :data:`SHAPES` key and its ``to_dict`` tag.
    kind: ClassVar[str]

    def rate_at(self, t: float, base_rate: float) -> float:
        raise NotImplementedError

    def peak_rate(self, base_rate: float) -> float:
        """The largest instantaneous rate the shape ever reaches.

        The control benchmark provisions its static arm from this.
        """
        raise NotImplementedError

    def to_dict(self) -> dict:
        """The shape's :data:`SHAPES` name under ``kind``, then its fields."""
        return {"kind": self.kind, **asdict(self)}


@dataclass(frozen=True)
class DiurnalShape(ArrivalShape):
    """A day/night sinusoid: trough at t=0, peak at half-period.

    ``rate(t) = base * (trough + (1 - trough) * (1 - cos(2pi t / period)) / 2)``

    Starting at the trough gives an autoscaler time to observe the ramp
    — exactly how overnight-provisioned clusters meet the morning rush.
    """

    kind = "diurnal"
    period_s: float = 20.0
    #: Trough rate as a fraction of the peak (base) rate, in (0, 1].
    trough_fraction: float = 0.25

    def rate_at(self, t: float, base_rate: float) -> float:
        phase = 0.5 * (1.0 - math.cos(2.0 * math.pi * t / self.period_s))
        scale = self.trough_fraction + (1.0 - self.trough_fraction) * phase
        return base_rate * scale

    def peak_rate(self, base_rate: float) -> float:
        return base_rate


@dataclass(frozen=True)
class FlashCrowdShape(ArrivalShape):
    """Baseline load with a burst of ``multiplier`` x during a window.

    Models incident fan-out: every agent in a monitored group starts
    reporting errors at once, then the storm passes.
    """

    kind = "flash"
    at_s: float = 5.0
    duration_s: float = 3.0
    multiplier: float = 4.0

    def rate_at(self, t: float, base_rate: float) -> float:
        if self.at_s <= t < self.at_s + self.duration_s:
            return base_rate * self.multiplier
        return base_rate

    def peak_rate(self, base_rate: float) -> float:
        return base_rate * max(1.0, self.multiplier)


@dataclass(frozen=True)
class StepShape(ArrivalShape):
    """A permanent step to ``factor`` x the base rate at ``at_s``.

    Models onboarding a new system group: load rises and stays risen.
    """

    kind = "step"
    at_s: float = 5.0
    factor: float = 2.0

    def rate_at(self, t: float, base_rate: float) -> float:
        return base_rate * (self.factor if t >= self.at_s else 1.0)

    def peak_rate(self, base_rate: float) -> float:
        return base_rate * max(1.0, self.factor)


#: Registry: shape name -> (dataclass, {spec key -> field name}).
SHAPES = {
    cls.kind: (cls, aliases) for cls, aliases in (
        (DiurnalShape, {"period": "period_s", "trough": "trough_fraction"}),
        (FlashCrowdShape, {"at": "at_s", "duration": "duration_s",
                           "multiplier": "multiplier"}),
        (StepShape, {"at": "at_s", "factor": "factor"}),
    )
}


def parse_shape(spec: str) -> ArrivalShape:
    """Build a shape from ``name`` or ``name:key=value,...``.

    Keys are the short registry aliases (``period``, ``trough``, ``at``,
    ``duration``, ``multiplier``, ``factor``); values parse as floats.
    """
    name, _, params = spec.partition(":")
    name = name.strip()
    if name not in SHAPES:
        known = ", ".join(sorted(SHAPES))
        raise ValueError(f"unknown arrival shape {name!r} (known: {known})")
    cls, aliases = SHAPES[name]
    kwargs = {}
    if params:
        for pair in params.split(","):
            key, sep, value = pair.partition("=")
            key = key.strip()
            if not sep or key not in aliases:
                choices = ", ".join(sorted(aliases))
                raise ValueError(f"bad shape parameter {pair!r} for "
                                 f"{name!r} (expected key=value with key "
                                 f"in: {choices})")
            kwargs[aliases[key]] = float(value)
    return cls(**kwargs)
