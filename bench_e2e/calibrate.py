"""How fast is the machine right now?  Sampled while a point runs.

Host time on a shared box is not steady: a busy neighbour slowed every
workload here by 20-50 % for minutes at a time (README.md, "Noise"), far
more than any bound could allow.  So while a point runs, a wall-clock
timer interrupts it every ``PERIOD_S`` for one *spin*: a fixed piece of
interpreter work of the two kinds the program does — arithmetic, string
formatting and dict updates as in record generation and loading, and
generator processes resumed off a heap as in the simulation kernel.  How
long the spins took, against ``REFERENCE_S``, says how much slower than
the reference machine this one was meanwhile, and reported seconds are
divided by it.  A change to the program cannot move the spin, so gains
and regressions show in full; a neighbour moves both and mostly cancels.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time

__all__ = ["MIN_LOCAL_SPINS", "PERIOD_S", "REFERENCE_S", "SpeedSampler",
           "slowdown"]

#: Seconds between spins; with ~8 ms spins the sampler costs ~4 % of the
#: time, which is measured and taken out of what is reported.
PERIOD_S = 0.2

#: Seconds a typical spin took inside the workloads on the quiet baseline
#: box (v1.7.0, 2 cores).  It only fixes the scale — reported seconds are
#: seconds on a machine that spins at this speed — and must never change,
#: or numbers from before and after cannot be compared.
REFERENCE_S = 0.0082

#: A phase with at least this many spins inside it is corrected by its own
#: spins; a shorter one has too few to average out their own jitter and is
#: corrected by all the spins of the pass.
MIN_LOCAL_SPINS = 30

_COMPUTE_STEPS = 7000
_EVENT_STEPS = 2500
_EVENT_PROCESSES = 4096
_LCG_A, _LCG_C, _LCG_M = 6364136223846793005, 1442695040888963407, 2**64


def _compute() -> None:
    table: dict = {}
    value = 1
    for __ in range(_COMPUTE_STEPS):
        value = (value * _LCG_A + _LCG_C) % _LCG_M
        table["user%019d" % (value % 4096)] = value


class _EventLoop:
    """A miniature of the simulation kernel: generator processes, each with
    some state of its own, resumed off a heap of wake-up times."""

    def __init__(self):
        self.now = 0.0
        self._processes = [self._process(index + 1)
                           for index in range(_EVENT_PROCESSES)]
        self._heap = [(next(process), index)
                      for index, process in enumerate(self._processes)]
        heapq.heapify(self._heap)

    def _process(self, value: int):
        state = {"ops": 0, "busy": 0.0}
        while True:
            value = (value * _LCG_A + _LCG_C) % _LCG_M
            delay = (value % 1000) / 1e6
            state["ops"] += 1
            state["busy"] += delay
            yield self.now + delay

    def run(self) -> None:
        heap, processes = self._heap, self._processes
        for __ in range(_EVENT_STEPS):
            self.now, index = heapq.heappop(heap)
            heapq.heappush(heap, (next(processes[index]), index))


def slowdown(spins: list[float]) -> float:
    """How much slower than the reference the machine ran, from spin times.

    The mean of the times without their lowest and highest tenth: a spin
    that was descheduled for 50 ms says nothing about the other 96 % of
    the time, and with ~40 spins a pass it would swing the plain mean
    (measured: run-to-run variation 4.5 % with the mean, 2.6 % trimmed).
    Without spins (a pass shorter than ``PERIOD_S``) there is nothing to
    correct by.
    """
    ordered = sorted(spins)
    trim = len(ordered) // 10
    kept = ordered[trim:len(ordered) - trim]
    return statistics.fmean(kept) / REFERENCE_S if kept else 1.0


class SpeedSampler:
    """Spins on a timer for the length of a ``with`` block (main thread).

    ``spins`` holds ``(start, seconds)`` of every spin, ``start`` on the
    ``perf_counter`` clock.
    """

    def __init__(self):
        self.spins: list[tuple[float, float]] = []
        self._events = _EventLoop()
        self._previous = None

    def _spin(self, signum, frame) -> None:
        started = time.perf_counter()
        _compute()
        self._events.run()
        self.spins.append((started, time.perf_counter() - started))

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._spin)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def between(self, start: float, end: float) -> list[float]:
        """Seconds of each spin that began in ``[start, end)``."""
        return [seconds for began, seconds in self.spins
                if start <= began < end]
