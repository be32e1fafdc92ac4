"""What one message costs the host, in interpreter calls.

The simulator's cost is, to first order, the fixed cost of one message,
and most of that is frames: each function on the path from ``rpc.call``
to the handler and back is paid per RPC, each one on the delivery path
per heartbeat copy.  These rigs count ``call`` events (``sys.setprofile``:
every Python function entry and generator resumption) on the two shapes
that dominate every workload, and assert ceilings — so the next frame
that creeps onto the wire path fails tier-1 by name instead of showing
up as a few per cent nobody can attribute (docs/performance.md § What a
message costs has the table these ceilings come from).
"""

import sys

from repro.network import Fabric
from repro.network.switch import Host
from repro.runtime import MetricsRegistry, ServiceRuntime
from repro.sim import Simulator

#: Python calls per answered echo roundtrip: 55.1 before the wire path
#: was cut to one function per kind of send, 40.1 after, 39.1 since the
#: answer resumes the caller inside its delivery (33.1 C calls, was
#: 35.1), 37.1 since an answer slot waits in its timeout value's queue
#: instead of the heap (34.1 C calls), 35.1 since the kernel builds a
#: ``Callback`` without an ``__init__`` frame (36.1 C calls: the
#: ``object.__new__``).  One more frame per roundtrip is 36.1.
ROUNDTRIP_CEILING = 35.1
#: Python calls per delivered heartbeat copy, the sender's loop and send
#: amortised over eight receivers: 13.40 before, 8.02 measured after;
#: 9.65 since each such copy is one ``call_later`` (its ``Callback``'s
#: ``__init__`` and the call itself, where a copy was one stop of a
#: shared train) — a copy that is an event is a join's, rare once
#: formation is planted; 8.65 since that ``Callback`` is built without
#: its ``__init__`` frame.  One more frame per *multicast* is 8.78, per
#: copy 9.65.
HEARTBEAT_COPY_CEILING = 8.7
#: Python calls per heartbeat copy a receiver's board takes (a known
#: member's, which is no event): 3.65 measured, the kernel's ``draw_seq``
#: one of them.  One more frame per multicast is 3.78, per copy 4.65.
BOARDED_COPY_CEILING = 3.7


def _rig(n):
    sim = Simulator()
    fabric = Fabric(sim)
    registry = MetricsRegistry()
    rts = []
    for i in range(n):
        host = Host(sim, f"n{i}")
        fabric.attach(host)
        rts.append(ServiceRuntime(sim, fabric, host, registry=registry))
    return sim, rts


def _count_calls(fn):
    """(Python calls, C calls) made while ``fn()`` runs."""
    counts = [0, 0]

    def hook(_frame, event, _arg):
        if event == "call":
            counts[0] += 1
        elif event == "c_call":
            counts[1] += 1

    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    # ``fn`` itself and the ``setprofile(None)`` that ends the count.
    return counts[0] - 1, counts[1] - 1


def echo_roundtrip_calls(rounds=200):
    """Per-roundtrip cost of ``n0`` calling ``n1``'s sync ``echo``."""
    sim, (a, b) = _rig(2)
    b.register("echo", lambda payload, src: (payload, 8))

    def client(n):
        for _ in range(n):
            yield from a.call("n1", "echo", "x", size=16)

    sim.run_process(sim.process(client(20)))      # cells, lanes, pool warm
    proc = sim.process(client(rounds))
    py, c = _count_calls(lambda: sim.run_process(proc))
    return py / rounds, c / rounds


def heartbeat_copy_calls(beats=100, receivers=8, boarded=False):
    """Per-copy cost of ``n0`` multicasting a heartbeat each second to
    ``receivers`` subscribers with a sync one-way handler — or, with
    ``boarded``, whose boards take every copy, as a membership view's
    board takes a known member's heartbeat (reading it is not counted)."""
    sim, rts = _rig(1 + receivers)
    seen = []
    for rt in rts:
        rt.subscribe("hb")
        rt.register("heartbeat", lambda payload, src: seen.append(payload))
        if boarded:
            rt.host.board = ("hb", {"n0"}, seen)

    def sender(n):
        for i in range(n):
            rts[0].multicast("hb", "heartbeat", i, size=96)
            yield sim.timeout(1.0)

    sim.run_process(sim.process(sender(10)))
    del seen[:]
    proc = sim.process(sender(beats))
    py, c = _count_calls(lambda: sim.run_process(proc))
    assert len(seen) == beats * receivers
    return py / len(seen), c / len(seen)


def test_echo_roundtrip_call_ceiling():
    py, _c = echo_roundtrip_calls()
    assert py <= ROUNDTRIP_CEILING, (
        f"{py:.1f} Python calls per echo roundtrip (ceiling "
        f"{ROUNDTRIP_CEILING}): a frame was added to the RPC path")


def test_heartbeat_copy_call_ceiling():
    py, _c = heartbeat_copy_calls()
    assert py <= HEARTBEAT_COPY_CEILING, (
        f"{py:.2f} Python calls per heartbeat copy (ceiling "
        f"{HEARTBEAT_COPY_CEILING}): a frame was added to the delivery path")


def test_boarded_copy_call_ceiling():
    py, _c = heartbeat_copy_calls(boarded=True)
    assert py <= BOARDED_COPY_CEILING, (
        f"{py:.2f} Python calls per boarded heartbeat copy (ceiling "
        f"{BOARDED_COPY_CEILING}): a frame was added to the board path")


if __name__ == "__main__":      # the table in docs/performance.md
    print("echo roundtrip   py %.1f  c %.1f" % echo_roundtrip_calls())
    print("heartbeat copy   py %.2f  c %.2f" % heartbeat_copy_calls())
    print("boarded copy     py %.2f  c %.2f"
          % heartbeat_copy_calls(boarded=True))
