"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim.kernel import (
    AllOf,
    Event,
    Process,
    Simulator,
    SimulationError,
    Timeout,
)


@pytest.fixture
def sim():
    return Simulator()


class TestEvent:
    def test_starts_pending(self, sim):
        event = sim.event()
        assert not event.triggered
        assert not event.processed

    def test_succeed_carries_value(self, sim):
        event = sim.event().succeed(42)
        sim.run()
        assert event.ok
        assert event.value == 42

    def test_value_before_trigger_raises(self, sim):
        event = sim.event()
        with pytest.raises(SimulationError):
            __ = event.value

    def test_double_trigger_raises(self, sim):
        event = sim.event().succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception(self, sim):
        event = sim.event()
        with pytest.raises(SimulationError):
            event.fail("not an exception")

    def test_callbacks_run_once(self, sim):
        calls = []
        event = sim.event()
        event.callbacks.append(lambda e: calls.append(e))
        event.succeed()
        sim.run()
        assert calls == [event]


class TestTimeout:
    def test_advances_clock(self, sim):
        sim.timeout(5.0)
        sim.run()
        assert sim.now == 5.0

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            Timeout(sim, -1.0)

    def test_zero_delay_fires_now(self, sim):
        timeout = sim.timeout(0.0, value="x")
        sim.run()
        assert timeout.value == "x"
        assert sim.now == 0.0

    def test_ordering_is_fifo_for_ties(self, sim):
        order = []

        def proc(tag, delay):
            yield sim.timeout(delay)
            order.append(tag)

        sim.process(proc("a", 1.0))
        sim.process(proc("b", 1.0))
        sim.run()
        assert order == ["a", "b"]


class TestProcess:
    def test_return_value_becomes_event_value(self, sim):
        def proc():
            yield sim.timeout(1.0)
            return "done"

        result = sim.run(until=sim.process(proc()))
        assert result == "done"

    def test_process_waits_on_process(self, sim):
        def inner():
            yield sim.timeout(2.0)
            return 10

        def outer():
            value = yield sim.process(inner())
            return value + 1

        assert sim.run(until=sim.process(outer())) == 11
        assert sim.now == 2.0

    def test_exception_propagates_to_run(self, sim):
        def proc():
            yield sim.timeout(1.0)
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            sim.run(until=sim.process(proc()))

    def test_exception_thrown_into_waiter(self, sim):
        def inner():
            yield sim.timeout(1.0)
            raise KeyError("inner")

        def outer():
            try:
                yield sim.process(inner())
            except KeyError:
                return "caught"
            return "not caught"

        assert sim.run(until=sim.process(outer())) == "caught"

    def test_yielding_non_event_raises(self, sim):
        def proc():
            yield 42

        with pytest.raises(SimulationError, match="non-event"):
            sim.run(until=sim.process(proc()))

    def test_non_generator_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.process(lambda: None)

    def test_waiting_on_already_processed_event(self, sim):
        timeout = sim.timeout(1.0, value="early")
        sim.run()

        def proc():
            value = yield timeout
            return value

        assert sim.run(until=sim.process(proc())) == "early"

    def test_is_alive(self, sim):
        def proc():
            yield sim.timeout(1.0)

        process = sim.process(proc())
        assert process.is_alive
        sim.run()
        assert not process.is_alive


class TestCombinators:
    def test_all_of_collects_values_in_order(self, sim):
        def proc(delay, value):
            yield sim.timeout(delay)
            return value

        procs = [sim.process(proc(3 - i, i)) for i in range(3)]
        values = sim.run(until=sim.all_of(procs))
        assert values == [0, 1, 2]
        assert sim.now == 3.0

    def test_all_of_empty_succeeds_immediately(self, sim):
        event = AllOf(sim, [])
        sim.run()
        assert event.value == []

    def test_all_of_fails_on_first_failure(self, sim):
        def bad():
            yield sim.timeout(1.0)
            raise RuntimeError("nope")

        def good():
            yield sim.timeout(5.0)

        with pytest.raises(RuntimeError):
            sim.run(until=sim.all_of([sim.process(bad()),
                                      sim.process(good())]))


class TestRun:
    def test_run_until_time(self, sim):
        fired = []

        def proc():
            yield sim.timeout(10.0)
            fired.append(True)

        sim.process(proc())
        sim.run(until=5.0)
        assert sim.now == 5.0
        assert not fired
        sim.run(until=15.0)
        assert fired

    def test_run_until_past_raises(self, sim):
        sim.timeout(1.0)
        sim.run()
        with pytest.raises(SimulationError):
            sim.run(until=0.5)

    def test_deadlock_detected(self, sim):
        event = sim.event()  # never triggered

        def proc():
            yield event

        process = sim.process(proc())
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run(until=process)

    def test_an_event_due_at_the_horizon_fires_in_that_call(self, sim):
        """A timer that lands exactly on the horizon, and a zero-delay
        event it triggers there, both fire before ``run`` returns."""
        fired = []
        echo = sim.event()
        echo.callbacks.append(lambda event: fired.append(("echo", sim.now)))

        def proc():
            yield sim.timeout(0.5)
            yield sim.timeout(0.5)  # scheduled at 0.5, due at 1.0
            fired.append(("timer", sim.now))
            echo.succeed()

        sim.process(proc())
        sim.run(until=1.0)
        assert fired == [("timer", 1.0), ("echo", 1.0)]
        assert sim.now == 1.0

    def test_the_clock_reaches_the_horizon_after_the_queues_drain(self, sim):
        sim.timeout(1.0)
        sim.run(until=5.0)
        assert sim.now == 5.0
        assert sim._sequence == 1  # running takes no sequence number
        sim.run()
        assert sim.now == 5.0

    def test_a_stop_event_run_continues_from_the_horizon(self, sim):
        def proc():
            yield sim.timeout(1.0)
            yield sim.timeout(3.0)
            return "done"

        process = sim.process(proc())
        sim.run(until=2.0)
        assert sim.now == 2.0 and process.is_alive
        assert sim.run(until=sim.timeout(0.5, value="half")) == "half"
        assert sim.now == 2.5 and process.is_alive
        assert sim.run(until=process) == "done"
        assert sim.now == 4.0

    def test_a_stop_event_that_never_fires_is_a_deadlock(self, sim):
        """The other work runs out first; the clock stays where it ended."""
        sim.timeout(1.0)
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run(until=sim.event())
        assert sim.now == 1.0

    def test_run_is_the_only_pop_and_dispatch(self):
        """No second path pops or fires an event beside ``run``'s loop
        (tests that step event by event use ``tests/sim/stepping.py``)."""
        assert not hasattr(Simulator, "_pop")
        assert not hasattr(Simulator, "_schedule")
        assert not hasattr(Event, "_fire")
        assert not hasattr(Process, "_fire")

    def test_determinism(self):
        def build_and_run():
            sim = Simulator()
            log = []

            def worker(i):
                for step in range(3):
                    yield sim.timeout(0.1 * ((i + step) % 3))
                    log.append((round(sim.now, 6), i, step))

            for i in range(5):
                sim.process(worker(i))
            sim.run()
            return log

        assert build_and_run() == build_and_run()
