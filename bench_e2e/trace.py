"""Wrappers around the program's layers, installed from outside.

A :class:`Tracer` replaces each wrap target (see ``api.trace_targets``)
with a timing wrapper for the length of a ``with`` block.  Low-frequency
phase calls (deploy, load, warm, ``Simulator.run``, serialise, store
write) are recorded as spans — name, start, end, parent, and the point's
name as the shared id.  High-frequency calls (record generation, storage
engine operations) are aggregated as ``[calls, self seconds]`` under the
phase they ran in.  Every timed wrapper pushes a frame on one stack, so
a call's self time is its duration minus what its timed children cover,
and self times never double count.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from bench_e2e import api

__all__ = ["SimSplit", "Tracer"]

#: Labels recorded as spans, as ``sim_run`` is by its own wrapper; the
#: other timed labels only aggregate.
_SPAN_LABELS = frozenset({"deploy.cluster", "deploy.store", "load", "warm",
                          "serialize", "resultstore.put"})
#: Generator functions: the call returns before the work runs, so only
#: the number of calls means anything.
_COUNT_LABELS = frozenset({"hdfs.read", "hdfs.append"})
#: Constructors whose new object is kept, to read its counters later.
_CAPTURE_LABELS = ("deploy.cluster", "lsm.new")


class _Patches:
    """Attribute replacements that can be undone."""

    def __init__(self):
        self._undo = []

    def replace(self, owner, attribute: str, value) -> None:
        own = vars(owner).get(attribute, self)  # self: "only inherited"
        self._undo.append((owner, attribute, own))
        setattr(owner, attribute, value)

    def restore(self) -> None:
        while self._undo:
            owner, attribute, own = self._undo.pop()
            if own is self:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)


class SimSplit:
    """The untraced run's only wrapper: when ``Simulator.run`` ran.

    Two ``perf_counter`` calls per entry (one or two entries per point)
    split a point's wall time into set-up, simulation and finish.
    """

    def __init__(self):
        self.runs: list[tuple[float, float]] = []
        self.events = None
        self._patches = _Patches()

    @contextmanager
    def point(self, name: str):
        """Watch one point; forgets the previous one."""
        self.runs.clear()
        self.events = None
        yield

    def __enter__(self) -> "SimSplit":
        run = api.Simulator.run
        clock = time.perf_counter

        def timed_run(sim, *args, **kwargs):
            started = clock()
            try:
                return run(sim, *args, **kwargs)
            finally:
                self.runs.append((started, clock()))
                self.events = api.kernel_events(sim)

        self._patches.replace(api.Simulator, "run", timed_run)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()


class Tracer:
    """Every layer wrapper, and what they recorded for the current point."""

    def __init__(self, stores: list[str]):
        self._stores = stores
        self._patches = _Patches()
        self._stack: list[list[float]] = []
        self._open_span = None
        self.captured = {label: [] for label in _CAPTURE_LABELS}
        self._reset("")

    @contextmanager
    def point(self, name: str):
        """Watch one point as the root span; forgets the previous one."""
        self._reset(name)
        with self.span("point"):
            yield

    @property
    def runs(self) -> list[tuple[float, float]]:
        """``(start, end)`` of every entry into ``Simulator.run``."""
        return [(span["start"], span["end"]) for span in self.spans
                if span["name"] == "sim_run"]

    def _reset(self, point: str) -> None:
        self._point_id = point
        self.events = None
        self.spans: list[dict] = []
        #: phase -> label -> [calls, self seconds]
        self.totals = {"setup": {}, "sim": {}}
        self._bucket = self.totals["setup"]
        for objects in self.captured.values():
            objects.clear()
        #: Engine counters when the simulation first started, which is
        #: where the set-up phase ends.
        self.setup_counters: dict = {}

    def _enter_sim(self) -> None:
        if self._bucket is self.totals["setup"]:
            self.setup_counters = api.engine_counters(self.captured["lsm.new"])
            self._bucket = self.totals["sim"]

    def _entry(self, label: str) -> list:
        entry = self._bucket.get(label)
        if entry is None:
            entry = self._bucket[label] = [0, 0.0]
        return entry

    def _close(self, label: str, frame: list, elapsed: float) -> None:
        stack = self._stack
        stack.pop()
        if stack:
            stack[-1][0] += elapsed
        entry = self._entry(label)
        entry[0] += 1
        entry[1] += elapsed - frame[0]

    @contextmanager
    def span(self, label: str):
        """Record the block as a span and as a timed frame."""
        span = {"id": len(self.spans), "name": label,
                "parent": self._open_span, "point": self._point_id}
        self.spans.append(span)
        outer, self._open_span = self._open_span, span["id"]
        frame = [0.0]
        self._stack.append(frame)
        span["start"] = time.perf_counter()
        try:
            yield
        finally:
            span["end"] = time.perf_counter()
            self._close(label, frame, span["end"] - span["start"])
            self._open_span = outer

    # -- wrappers -----------------------------------------------------------

    def _spanned(self, label: str, function):
        keep = self.captured.get(label)

        def wrapper(*args, **kwargs):
            if keep is not None:
                keep.append(args[0])
            with self.span(label):
                return function(*args, **kwargs)

        return wrapper

    def _sim_run(self, run):
        def wrapper(sim, *args, **kwargs):
            self._enter_sim()
            try:
                with self.span("sim_run"):
                    return run(sim, *args, **kwargs)
            finally:
                self.events = api.kernel_events(sim)

        return wrapper

    def _timed(self, label: str, function):
        stack = self._stack
        clock = time.perf_counter
        close = self._close

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            started = clock()
            try:
                return function(*args, **kwargs)
            finally:
                close(label, frame, clock() - started)

        return wrapper

    def _counted(self, label: str, function):
        def wrapper(*args, **kwargs):
            self._entry(label)[0] += 1
            return function(*args, **kwargs)

        return wrapper

    def _capturing(self, label: str, function):
        keep = self.captured[label]

        def wrapper(*args, **kwargs):
            keep.append(args[0])
            return function(*args, **kwargs)

        return wrapper

    def _wrap(self, label: str, function):
        if label == "sim_run":
            return self._sim_run(function)
        if label in _SPAN_LABELS:
            return self._spanned(label, function)
        if label in _COUNT_LABELS:
            return self._counted(label, function)
        if label in self.captured:
            return self._capturing(label, function)
        return self._timed(label, function)

    def __enter__(self) -> "Tracer":
        for label, owner, attribute in api.trace_targets(self._stores):
            original = getattr(owner, attribute)
            wrapper = self._wrap(label, original)
            if isinstance(owner, type):
                self._patches.replace(owner, attribute, wrapper)
            else:
                for module, name in api.modules_binding(original):
                    self._patches.replace(module, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()
