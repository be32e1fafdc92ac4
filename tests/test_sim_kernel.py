"""Tests for the DES kernel: events, processes, time, interrupts."""

import pytest

from repro.sim import (
    AllOf,
    Event,
    Interrupt,
    Simulator,
)


def test_timeout_advances_clock():
    sim = Simulator()
    log = []

    def proc():
        yield sim.timeout(1.5)
        log.append(sim.now)
        yield sim.timeout(0.5)
        log.append(sim.now)

    p = sim.process(proc())
    sim.run_process(p)
    assert log == [1.5, 2.0]


def test_timeout_carries_value():
    sim = Simulator()

    def proc():
        v = yield sim.timeout(1.0, value="hello")
        return v

    assert sim.run_process(sim.process(proc())) == "hello"


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1)


def test_process_return_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(1)
        return 42

    assert sim.run_process(sim.process(proc())) == 42


def test_process_exception_propagates():
    sim = Simulator()

    def proc():
        yield sim.timeout(1)
        raise ValueError("boom")

    with pytest.raises(ValueError, match="boom"):
        sim.run_process(sim.process(proc()))


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    ev = sim.event()
    woke = []

    def waiter():
        v = yield ev
        woke.append((sim.now, v))

    def trigger():
        yield sim.timeout(3)
        ev.succeed("payload")

    sim.process(waiter())
    sim.process(trigger())
    sim.run()
    assert woke == [(3.0, "payload")]


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    ev = sim.event()

    def waiter():
        with pytest.raises(RuntimeError, match="bad"):
            yield ev
        return "caught"

    def trigger():
        yield sim.timeout(1)
        ev.fail(RuntimeError("bad"))

    p = sim.process(waiter())
    sim.process(trigger())
    assert sim.run_process(p) == "caught"


def test_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)


def test_yield_already_triggered_event():
    """Waiting on a past event must resume promptly, not deadlock."""
    sim = Simulator()
    ev = sim.event()
    ev.succeed("past")
    sim.run()  # dispatch it

    def proc():
        v = yield ev
        return (sim.now, v)

    assert sim.run_process(sim.process(proc())) == (0.0, "past")


def test_allof_waits_for_all():
    sim = Simulator()

    def proc():
        t1 = sim.timeout(1, value="a")
        t2 = sim.timeout(5, value="b")
        results = yield AllOf(sim, [t1, t2])
        return (sim.now, sorted(results.values()))

    assert sim.run_process(sim.process(proc())) == (5.0, ["a", "b"])


def test_allof_fails_if_child_fails():
    sim = Simulator()
    bad = sim.event()

    def trigger():
        yield sim.timeout(1)
        bad.fail(ValueError("child"))

    def proc():
        yield AllOf(sim, [sim.timeout(10), bad])

    sim.process(trigger())
    with pytest.raises(ValueError, match="child"):
        sim.run_process(sim.process(proc()))


def test_interrupt_breaks_wait():
    sim = Simulator()
    caught = []

    def victim():
        try:
            yield sim.timeout(100)
        except Interrupt as it:
            caught.append((sim.now, it.cause))

    def killer(p):
        yield sim.timeout(2)
        p.interrupt("crash")

    p = sim.process(victim())
    sim.process(killer(p))
    sim.run()
    assert caught == [(2.0, "crash")]


def test_uncaught_interrupt_kills_silently():
    sim = Simulator()
    after = []

    def victim():
        yield sim.timeout(100)
        after.append(sim.now)

    def killer(p):
        yield sim.timeout(1)
        p.interrupt()

    p = sim.process(victim())
    sim.process(killer(p))
    sim.run()
    assert p.triggered and p.ok
    assert after == []  # never resumed past the interrupt point


def test_interrupted_waiter_does_not_consume_event():
    """After an interrupt, the abandoned event's trigger must not resume us."""
    sim = Simulator()
    ev = sim.event()
    trace = []

    def victim():
        try:
            yield ev
            trace.append("woke-on-event")
        except Interrupt:
            trace.append("interrupted")
            yield sim.timeout(10)
            trace.append("resumed-after")

    def driver(p):
        yield sim.timeout(1)
        p.interrupt()
        yield sim.timeout(1)
        ev.succeed("late")

    p = sim.process(victim())
    sim.process(driver(p))
    sim.run()
    assert trace == ["interrupted", "resumed-after"]


def test_run_until_stops_clock():
    sim = Simulator()

    def proc():
        while True:
            yield sim.timeout(1)

    sim.process(proc())
    sim.run(until=5.5)
    assert sim.now == 5.5


def test_deadlock_detected():
    sim = Simulator()
    ev = sim.event()

    def proc():
        yield ev

    p = sim.process(proc())
    with pytest.raises(RuntimeError, match="deadlock"):
        sim.run_process(p)


def test_deterministic_ordering():
    """Same-time events dispatch in scheduling order."""
    sim = Simulator()
    order = []

    def proc(tag):
        yield sim.timeout(1)
        order.append(tag)

    for i in range(5):
        sim.process(proc(i))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_yield_non_event_raises():
    sim = Simulator()

    def proc():
        yield 42

    with pytest.raises(TypeError):
        sim.run_process(sim.process(proc()))
