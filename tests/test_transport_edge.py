"""Edge-case tests for the RPC transport layer."""

import pytest

from repro.network import Fabric, RpcTimeout
from repro.network.switch import Host
from repro.runtime import ServiceRuntime
from repro.sim import Simulator


def make_net(n=2):
    sim = Simulator()
    fabric = Fabric(sim)
    eps = {}
    for i in range(n):
        host = Host(sim, f"n{i}")
        fabric.attach(host)
        eps[f"n{i}"] = ServiceRuntime(sim, fabric, host)
    return sim, fabric, eps


def test_late_response_after_timeout_is_ignored():
    """A response that arrives after the caller gave up must not crash or
    leak into a later call."""
    sim, fabric, eps = make_net()

    def sluggish(payload, src):
        yield sim.timeout(2.0)
        return ("late", 32)

    eps["n1"].register("slow", sluggish)
    outcomes = []

    def client():
        with pytest.raises(RpcTimeout):
            yield from eps["n0"].call("n1", "slow", timeout=0.5)
        assert eps["n0"]._pending == {}  # given up on: nobody to answer
        outcomes.append("timed-out")
        # A fresh call right away gets ITS response, not the stale one.
        eps["n1"].unregister("slow")
        eps["n1"].register("slow", lambda p, s: ("fresh", 32))
        resp = yield from eps["n0"].call("n1", "slow", timeout=5.0)
        outcomes.append(resp)

    sim.run_process(sim.process(client()))
    sim.run()  # let the stale response land harmlessly
    assert outcomes == ["timed-out", "fresh"]


def test_duplicate_service_registration_rejected():
    sim, fabric, eps = make_net()
    eps["n1"].register("svc", lambda p, s: None)
    with pytest.raises(ValueError):
        eps["n1"].register("svc", lambda p, s: None)
    eps["n1"].unregister("svc")
    eps["n1"].register("svc", lambda p, s: ("v2", 16))

    def client():
        resp = yield from eps["n0"].call("n1", "svc")
        return resp

    assert sim.run_process(sim.process(client())) == "v2"


def test_oneway_generator_handler_runs():
    sim, fabric, eps = make_net()
    seen = []

    def handler(payload, src):
        yield sim.timeout(0.3)
        seen.append((sim.now, payload))

    eps["n1"].register("note", handler)
    eps["n0"].send("n1", "note", "async")
    sim.run()
    assert seen and seen[0][1] == "async"
    assert seen[0][0] >= 0.3


def test_handler_return_conventions():
    sim, fabric, eps = make_net()
    eps["n1"].register("none", lambda p, s: None)
    eps["n1"].register("bare", lambda p, s: {"k": 1})
    eps["n1"].register("sized", lambda p, s: ({"k": 2}, 128))

    def client():
        a = yield from eps["n0"].call("n1", "none")
        b = yield from eps["n0"].call("n1", "bare")
        c = yield from eps["n0"].call("n1", "sized")
        return a, b, c

    a, b, c = sim.run_process(sim.process(client()))
    assert a is None
    assert b == {"k": 1}
    assert c == {"k": 2}


def test_multicast_to_empty_group_is_noop():
    sim, fabric, eps = make_net()
    eps["n0"].multicast("ghost-group", "svc", None, size=32)
    sim.run()
    assert fabric.messages_dropped == 0


# ------------------------------------------------- one reply event per exchange
def test_reply_before_deadline_leaves_only_a_tombstone():
    """The thing in ``_pending`` is the event the caller waits on and its
    own deadline: an answered exchange costs one dispatch for the answer,
    and what stays on the heap — its timeout value's queue, armed at the
    answered slot — is swept, never dispatched."""
    sim, fabric, eps = make_net()
    eps["n1"].register("echo", lambda p, s: (p, 8))

    def client():
        resp = yield from eps["n0"].call("n1", "echo", "x", timeout=5.0)
        return resp, sim.now

    resp, t = sim.run_process(sim.process(client()))
    assert resp == "x" and t < 0.01
    assert eps["n0"]._pending == {}
    assert sim.pending_events == 1          # the 5 s queue, at that slot
    done = sim._nprocessed
    sim.run()
    assert sim._nprocessed == done          # ...is not an event
    assert sim._nswept == 1
    assert sim.pending_events == 0


def test_rpc_timeout_fires_at_exactly_the_deadline():
    sim, fabric, eps = make_net()
    fabric.hosts["n1"].alive = False

    def client():
        yield sim.timeout(0.125)
        t0 = sim.now
        with pytest.raises(RpcTimeout):
            yield from eps["n0"].call("n1", "echo", timeout=0.75)
        return sim.now - t0

    assert sim.run_process(sim.process(client())) == 0.75
    assert eps["n0"]._pending == {}
    assert sim._nswept == 0                 # the deadline did dispatch


def test_duplicate_response_is_harmless():
    """A degraded link delivers the response twice: the second copy finds
    nobody waiting and cannot answer a later exchange."""
    import random

    from repro.network.switch import LinkFault

    sim, fabric, eps = make_net()
    served = []

    def handler(p, s):
        served.append(p)
        return (p, 8)

    eps["n1"].register("echo", handler)
    fabric.degrade_link("n1", "n0",
                        LinkFault(rng=random.Random(1), duplicate=1.0))

    def client():
        a = yield from eps["n0"].call("n1", "echo", "first")
        b = yield from eps["n0"].call("n1", "echo", "second")
        return a, b

    assert sim.run_process(sim.process(client())) == ("first", "second")
    sim.run()
    assert served == ["first", "second"]
    assert fabric.messages_duplicated == 2
    assert eps["n0"]._pending == {}


# ------------------------------------------- handlers start inside the delivery
def test_request_handler_runs_in_its_own_process_started_at_delivery():
    """The handler generator starts inside the delivery event (no
    bootstrap event of its own) yet is a process of its own: it sees
    itself as ``sim.active_process`` and the delivery sees none again
    once the handler has reached its first wait."""
    sim, fabric, eps = make_net()
    seen = []

    def handler(payload, src):
        seen.append(("start", sim._nprocessed, sim.active_process.name))
        yield sim.timeout(0.25)
        seen.append(("resumed", sim.active_process.name))
        return ("ok", 8)

    eps["n1"].register("work", handler)
    deliver = fabric.hosts["n1"].deliver

    def spy(msg):
        kind, before = msg.kind, sim._nprocessed
        deliver(msg)
        seen.append(("delivered", kind, before, sim.active_process))

    fabric.hosts["n1"].deliver = spy

    def client():
        resp = yield from eps["n0"].call("n1", "work")
        return resp

    caller = sim.process(client())
    assert sim.run_process(caller) == "ok"
    start, delivered, resumed = seen
    assert start[2] == "handle:work" and resumed[1] == "handle:work"
    # Same event count inside the handler's first segment as in the
    # delivery that started it, and no process is active afterwards.
    assert delivered == ("delivered", "req", start[1], None)


def test_a_handled_request_is_one_generator_deep():
    """The request's process delegates straight to a generator handler
    (nothing re-entered per resume in between), and a sync handler is
    called from the process's own frame."""
    import sys

    sim, fabric, eps = make_net()
    seen = {}

    def body(payload):
        seen["proc"] = sim.active_process
        yield sim.timeout(0.25)
        return (payload, 8)

    def gen_handler(payload, src):
        seen["gen"] = body(payload)
        return seen["gen"]

    def sync_handler(payload, src):
        seen["sync"] = sys._getframe(1) is sim.active_process._gen.gi_frame
        return (payload, 8)

    eps["n1"].register("gen", gen_handler)
    eps["n1"].register("sync", sync_handler)

    def probe():
        yield sim.timeout(0.125)            # the handler is mid-wait
        return seen["proc"]._gen.gi_yieldfrom is seen["gen"]

    def client():
        a = yield from eps["n0"].call("n1", "gen", "a")
        b = yield from eps["n0"].call("n1", "sync", "b")
        return a, b

    direct = sim.process(probe())
    assert sim.run_process(sim.process(client())) == ("a", "b")
    assert direct.value is True
    assert seen["sync"] is True


def test_handler_that_raises_before_its_first_wait_answers_err():
    from repro.network import RpcRemoteError

    sim, fabric, eps = make_net()

    def sync_bad(payload, src):
        raise KeyError("sync")

    def gen_bad(payload, src):
        raise KeyError("gen")
        yield  # pragma: no cover - makes this a generator

    eps["n1"].register("sync_bad", sync_bad)
    eps["n1"].register("gen_bad", gen_bad)
    eps["n1"].register("sync_ok", lambda p, s: ("fine", 8))

    def client():
        out = []
        for service in ("sync_bad", "gen_bad"):
            with pytest.raises(RpcRemoteError, match="KeyError"):
                yield from eps["n0"].call("n1", service)
            out.append(sim.now)
        out.append((yield from eps["n0"].call("n1", "sync_ok")))
        return out

    t1, t2, ok = sim.run_process(sim.process(client()))
    assert ok == "fine"
    assert 0 < t1 < t2 < 0.01               # answered, not timed out


def test_crash_between_delivery_and_reply_costs_the_caller_its_deadline():
    """The handler starts at delivery; a node that dies while it waits
    sends nothing, and a one-way generator handler on the dead node
    still runs to its end without raising into the kernel."""
    sim, fabric, eps = make_net()
    finished = []

    def slow(payload, src):
        yield sim.timeout(1.0)
        finished.append(payload)
        return ("ghost", 32)

    eps["n1"].register("slow", slow)
    eps["n0"].send("n1", "slow", "oneway")

    def killer():
        yield sim.timeout(0.5)
        fabric.hosts["n1"].alive = False

    def client():
        t0 = sim.now
        with pytest.raises(RpcTimeout):
            yield from eps["n0"].call("n1", "slow", "rpc", timeout=3.0)
        return sim.now - t0

    sim.process(killer())
    assert sim.run_process(sim.process(client())) == 3.0
    assert finished == ["oneway", "rpc"]
    assert fabric.messages_sent == 2        # no reply left the dead node
