"""Tests for the network substrate: fabric, NIC pipes, RPC, multicast."""

import random
from zlib import crc32

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.network import (
    Fabric,
    Message,
    RpcRemoteError,
    RpcTimeout,
    switch,
)
from repro.network.message import HEADER_BYTES, MULTICAST
from repro.network.switch import Host, LinkFault
from repro.runtime import ServiceRuntime
from repro.sim import Simulator
from repro.sim.parallel import PartitionMap, Transit


def delivery_lane(src: str, dst: str) -> int:
    """The lane formula as first written: 30 bits of the crc32 of the
    joined pair, plus one (the reference for ``Host.lane_to``)."""
    return 1 + (crc32(f"{src}\x00{dst}".encode()) & 0x3FFFFFFF)


def make_net(n=3, rate=12.5e6, latency=80e-6):
    sim = Simulator()
    fabric = Fabric(sim, latency=latency)
    eps = {}
    for i in range(n):
        host = Host(sim, f"n{i}", rate=rate)
        fabric.attach(host)
        eps[f"n{i}"] = ServiceRuntime(sim, fabric, host)
    return sim, fabric, eps


def test_rpc_roundtrip():
    sim, fabric, eps = make_net()
    eps["n1"].register("echo", lambda payload, src: (payload.upper(), 16))

    def client():
        resp = yield from eps["n0"].call("n1", "echo", "hello", size=16)
        return (resp, sim.now)

    resp, t = sim.run_process(sim.process(client()))
    assert resp == "HELLO"
    assert 0 < t < 0.01  # sub-10ms LAN roundtrip


def test_rpc_latency_scales_with_size():
    sim, fabric, eps = make_net(rate=1e6)
    eps["n1"].register("sink", lambda payload, src: (None, 32))

    def client(size):
        t0 = sim.now
        yield from eps["n0"].call("n1", "sink", None, size=size)
        return sim.now - t0

    t_small = sim.run_process(sim.process(client(100)))
    t_big = sim.run_process(sim.process(client(1_000_000)))
    # 1 MB over a 1 MB/s link, cut-through pipelined: ~1 s (not 2).
    assert t_small + 0.9 < t_big < t_small + 1.5


def test_rpc_to_dead_host_times_out():
    sim, fabric, eps = make_net()
    fabric.hosts["n1"].alive = False

    def client():
        with pytest.raises(RpcTimeout):
            yield from eps["n0"].call("n1", "echo", "x", timeout=1.0)
        return sim.now

    t = sim.run_process(sim.process(client()))
    assert t == pytest.approx(1.0)


def test_rpc_unknown_service_is_remote_error():
    sim, fabric, eps = make_net()

    def client():
        with pytest.raises(RpcRemoteError):
            yield from eps["n0"].call("n1", "nope")

    sim.run_process(sim.process(client()))


def test_rpc_handler_exception_travels_back():
    sim, fabric, eps = make_net()

    def bad(payload, src):
        raise ValueError("server-side boom")

    eps["n1"].register("bad", bad)

    def client():
        with pytest.raises(RpcRemoteError, match="server-side boom"):
            yield from eps["n0"].call("n1", "bad")

    sim.run_process(sim.process(client()))


def test_generator_handler_can_wait():
    sim, fabric, eps = make_net()

    def slow(payload, src):
        yield sim.timeout(0.5)
        return ("done", 8)

    eps["n1"].register("slow", slow)

    def client():
        resp = yield from eps["n0"].call("n1", "slow")
        return (resp, sim.now)

    resp, t = sim.run_process(sim.process(client()))
    assert resp == "done"
    assert t > 0.5


def test_extra_rtts_add_latency():
    sim, fabric, eps = make_net(latency=1e-3)
    eps["n1"].register("op", lambda p, s: (None, 32))

    def client(rtts):
        t0 = sim.now
        yield from eps["n0"].call("n1", "op", rtts=rtts)
        return sim.now - t0

    t1 = sim.run_process(sim.process(client(1)))
    t3 = sim.run_process(sim.process(client(3)))
    # Each extra rtt is ~2 hops of 1 ms latency.
    assert t3 > t1 + 2 * 2 * 1e-3 * 0.9


def test_oneway_send_delivers():
    sim, fabric, eps = make_net()
    seen = []
    eps["n2"].register("note", lambda payload, src: seen.append((src, payload)))
    eps["n0"].send("n2", "note", {"x": 1}, size=32)
    sim.run()
    assert seen == [("n0", {"x": 1})]


def test_multicast_reaches_subscribers_not_sender():
    sim, fabric, eps = make_net(n=4)
    seen = []
    for hid in ("n0", "n1", "n2"):
        eps[hid].subscribe("hb")
        eps[hid].register("beat", lambda payload, src, hid=hid: seen.append((hid, src)))
    # n3 not subscribed but has handler
    eps["n3"].register("beat", lambda payload, src: seen.append(("n3", src)))

    eps["n0"].multicast("hb", "beat", None, size=64)
    sim.run()
    assert sorted(seen) == [("n1", "n0"), ("n2", "n0")]


class _CountingRng(random.Random):
    draws = 0

    def random(self):
        self.draws += 1
        return super().random()


def _faulted_multicasts(fault, as_unicasts, monkeypatch):
    """25 sends from n0 to the five other members of one group: every
    link degraded by ``fault``, n2 and n3 partitioned away, n5 down from
    just after the 10th send (before it arrives) until the 15th."""
    sim = Simulator()
    fabric = Fabric(sim)
    log, released = [], []
    for i in range(6):
        host = Host(sim, f"n{i}")
        fabric.attach(host)
        fabric.subscribe("g", host.hostid)
        host.deliver = lambda msg, h=host.hostid: log.append((sim.now, h))

    def spy(msg):
        assert msg._refs <= 0
        released.append(msg.msg_id)

    monkeypatch.setattr(switch, "release_message", spy)
    rng = _CountingRng(5)
    fabric.degrade_link("n0", "*", LinkFault(rng=rng, **fault))
    fabric.partition(["n0"], ["n2", "n3"])
    sent = []

    def send(_a, _b):
        targets = [h for h in fabric.groups["g"] if h != "n0"]
        for dst in (targets if as_unicasts else [MULTICAST]):
            msg = Message("n0", dst, "oneway", size=96, group="g")
            sent.append(msg.msg_id)
            fabric.send(msg)

    def set_alive(host, alive):
        host.alive = alive

    for k in range(25):
        sim.call_later(k * 1e-3, send, None, None)
    sim.call_later(10e-3 + 20e-6, set_alive, fabric.hosts["n5"], False)
    sim.call_later(15e-3 + 20e-6, set_alive, fabric.hosts["n5"], True)
    sim.run()
    assert sim.pending_events == 0
    assert sorted(released) == sent         # every envelope, exactly once
    nics = {h: (host.nic.tx.bytes_transferred, host.nic.rx.bytes_transferred)
            for h, host in fabric.hosts.items()}
    return (log, fabric.messages_dropped, fabric.messages_duplicated,
            rng.draws, nics, sim._nprocessed, sim.peak_pending)


@pytest.mark.parametrize("fault", [
    dict(jitter=40e-6, duplicate=0.3, drop=0.3),            # own instants
    dict(extra_latency=30e-6, duplicate=0.3, drop=0.3),     # shared instants
], ids=["jitter", "no-jitter"])
def test_multicast_is_its_unicasts_in_group_order(fault, monkeypatch):
    """A multicast's copies are one ``call_later`` each; what arrives,
    where and when, what is dropped or duplicated, and how the fault
    stream is consumed must be what the same message sent as unicasts in
    group order gives (one admission rule, applied per copy)."""
    log, dropped, duped, draws, nics, nproc, peak = _faulted_multicasts(
        fault, False, monkeypatch)
    ref = _faulted_multicasts(fault, True, monkeypatch)
    assert (log, dropped, duped, draws) == ref[:4]
    assert len(log) > 40 and dropped > 50 and duped > 10
    assert any(h == "n5" for _t, h in log) and \
        not any(h in ("n2", "n3") for _t, h in log)
    # The sender's tx link carries a multicast once, a unicast per target.
    ref_nics = dict(ref[4], n0=(ref[4]["n0"][0] // 5, 0))
    assert nics == ref_nics
    assert nproc == ref[5] and peak == ref[6]


def test_dead_host_drops_messages():
    sim, fabric, eps = make_net()
    seen = []
    eps["n1"].register("note", lambda payload, src: seen.append(payload))
    fabric.hosts["n1"].alive = False
    eps["n0"].send("n1", "note", "lost", size=32)
    sim.run()
    assert seen == []
    assert fabric.messages_dropped == 1


def test_dead_sender_sends_nothing():
    sim, fabric, eps = make_net()
    seen = []
    eps["n1"].register("note", lambda payload, src: seen.append(payload))
    fabric.hosts["n0"].alive = False
    eps["n0"].send("n1", "note", "ghost", size=32)
    sim.run()
    assert seen == []
    assert fabric.messages_sent == 0


def test_nic_accounting():
    sim, fabric, eps = make_net()
    eps["n1"].register("sink", lambda p, s: (None, 32))

    def client():
        yield from eps["n0"].call("n1", "sink", None, size=1000)

    sim.run_process(sim.process(client()))
    assert fabric.hosts["n0"].nic.bytes_sent == 1000 + HEADER_BYTES
    assert fabric.hosts["n1"].nic.bytes_received == 1000 + HEADER_BYTES


def test_link_saturation_serializes_transfers():
    """Two big concurrent sends from one host share its 1 MB/s uplink."""
    sim, fabric, eps = make_net(rate=1e6)
    eps["n1"].register("sink", lambda p, s: (None, 32))
    eps["n2"].register("sink", lambda p, s: (None, 32))
    done = []

    def client(dst):
        yield from eps["n0"].call(dst, "sink", None, size=1_000_000)
        done.append(sim.now)

    sim.process(client("n1"))
    sim.process(client("n2"))
    sim.run()
    # 2 MB through the shared 1 MB/s tx pipe: last completion >= 2 s.
    assert max(done) >= 2.0


def test_loopback_skips_nic():
    """A host calling its own service must not burn NIC bandwidth."""
    sim, fabric, eps = make_net(rate=1e6)
    eps["n0"].register("self", lambda p, s: (None, 32))

    def client():
        t0 = sim.now
        yield from eps["n0"].call("n0", "self", None, size=1_000_000)
        return sim.now - t0

    elapsed = sim.run_process(sim.process(client()))
    # 1 MB over the 1 MB/s NIC would take ~2 s; loopback is microseconds.
    assert elapsed < 1e-3
    assert fabric.hosts["n0"].nic.bytes_sent == 0


def test_duplicate_hostid_rejected():
    sim = Simulator()
    fabric = Fabric(sim)
    fabric.attach(Host(sim, "a"))
    with pytest.raises(ValueError):
        fabric.attach(Host(sim, "a"))


# ------------------------------------------------- send vs. its reference
def _reference_send(self, msg):
    """``Fabric.send`` + ``Fabric._transmit`` as they stood before the
    wire path became one function per kind of send: one general loop
    over a ``targets`` tuple, per-copy ``range(ncopies)``, ``max()`` and
    keyword calls.  Kept as it was (``self`` is the fabric; the fault
    lookup and the wire size spelled out) as the reference the two send
    functions are compared against — except that a multicast's copies
    are one ``call_later`` each, as they are now, where they rode one
    ``call_fanout`` train per instant until trains were retired."""
    from repro.network.message import release_message

    src = self.hosts.get(msg.src)
    if src is None or not src.alive:
        release_message(msg)
        return
    self.messages_sent += 1
    if msg.dst == MULTICAST:
        members = self.groups.get(msg.group)
        targets = [h for h in members if h != msg.src] if members else ()
    elif msg.dst == msg.src:
        msg._refs = 1
        self.sim.call_later(switch.LOOPBACK_LATENCY, self._deliver_copy, src,
                            msg, lane=delivery_lane(msg.src, msg.src))
        return
    else:
        targets = (msg.dst,)
    sim = self.sim
    now = sim.now
    blocked = self._blocked
    have_faults = bool(self._link_faults)
    transit = self.transit
    tx_start, tx_done = src.nic.tx.reserve((msg.size + HEADER_BYTES))
    copies = 0
    xcopies = None
    for hostid in targets:
        if blocked and (msg.src, hostid) in blocked:
            self.messages_dropped += 1
            continue
        cross = transit is not None and transit.is_cross(msg.src, hostid)
        if not cross:
            dst = self.hosts.get(hostid)
            if dst is None or not dst.alive or dst.deliver is None:
                self.messages_dropped += 1
                continue
        ncopies, extra = 1, 0.0
        if have_faults:
            fault = None
            for key in ((msg.src, hostid), (msg.src, "*"), ("*", hostid),
                        ("*", "*")):        # most specific match wins
                fault = fault or self._link_faults.get(key)
            if fault is not None:
                if fault.drop and fault.rng.random() < fault.drop:
                    self.messages_dropped += 1
                    continue
                if fault.duplicate \
                        and fault.rng.random() < fault.duplicate:
                    ncopies = 2
                    self.messages_duplicated += 1
                extra = fault.extra_latency
                if fault.jitter:
                    extra += fault.rng.random() * fault.jitter
                if fault.bandwidth_cap:
                    extra += (msg.size + HEADER_BYTES) / fault.bandwidth_cap
        if cross:
            if xcopies is None:
                xcopies = []
            for _ in range(ncopies):
                xcopies.append((hostid, extra))
            continue
        for _ in range(ncopies):
            _rx_start, rx_done = dst.nic.rx.reserve(
                (msg.size + HEADER_BYTES), not_before=tx_start + self.latency + extra)
            arrive = max(tx_done + self.latency + extra, rx_done)
            sim.call_later(arrive - now, self._deliver_copy, dst, msg,
                           lane=delivery_lane(msg.src, hostid))
            copies += 1
    msg._refs = copies
    if xcopies:
        transit.submit(msg, xcopies, tx_done)
    if copies == 0:
        release_message(msg)


class _RecordingTransit:
    """Duck-typed ``fabric.transit``: n0–n2 in partition 0, n3–n4 in 1,
    the unattached ``ghost`` in none; records what it is handed."""

    assign = {"n0": 0, "n1": 0, "n2": 0, "n3": 1, "n4": 1}

    def __init__(self):
        self.submitted = []

    def is_cross(self, a, b):
        pa, pb = self.assign.get(a), self.assign.get(b)
        return pa is not None and pb is not None and pa != pb

    def submit(self, msg, copies, tx_done):
        self.submitted.append((msg.src, msg.dst, msg.kind, msg.payload,
                               msg.size, msg.group, list(copies), tx_done))


_HOSTS = ["n0", "n1", "n2", "n3", "n4"]
_ENDS = st.sampled_from(_HOSTS + ["*"])
_hosts = st.sampled_from(_HOSTS)
# Few distinct sizes, gaps and delays, so arrivals share instants; 20 000 B
# is past the NIC's small-message bypass.
_gap = st.sampled_from([0.0, 0.0, 5e-6, 80e-6, 1e-3])
_fault = st.fixed_dictionaries({
    "extra_latency": st.sampled_from([0.0, 30e-6]),
    "jitter": st.sampled_from([0.0, 40e-6]),
    "drop": st.sampled_from([0.0, 0.3, 1.0]),
    "duplicate": st.sampled_from([0.0, 0.4, 1.0]),
    "bandwidth_cap": st.sampled_from([None, 1e6]),
})
_send = st.tuples(
    st.just("send"), _gap, _hosts,
    st.sampled_from(_HOSTS + ["ghost", "g", "g", "g", "solo", "nogroup"]),
    st.sampled_from([0, 64, 96, 20000]))
_degrade = st.tuples(st.just("degrade"), _gap, _ENDS, _ENDS, _fault)
_op = st.one_of(
    _send, _send, _send, _send, _degrade,
    st.tuples(st.just("alive"), _gap, _hosts, st.booleans()),
    st.tuples(st.just("partition"), _gap, _hosts, _hosts, st.booleans()),
    st.tuples(st.just("heal"), _gap),
    st.tuples(st.just("restore"), _gap, _ENDS, _ENDS),
    st.tuples(st.just("member"), _gap, _hosts, st.booleans()),
)
#: Every knob set on every link, then a burst of multicasts and unicasts.
_DENSE = [("degrade", 0.0, "*", "*", dict(
    extra_latency=30e-6, jitter=40e-6, drop=0.3, duplicate=0.4,
    bandwidth_cap=1e6))] + [("send", 5e-6, "n0", "g", 96)] * 6 \
    + [("send", 0.0, "n1", "n3", 64)] * 4
#: A duplicated copy to a one-member group: two ``call_later``s at one
#: instant, under one lane.
_SOLO_TWICE = [
    ("send", 0.0, "n0", "n0", 0),
    ("degrade", 0.0, "n0", "n1", dict(extra_latency=0.0, jitter=0.0, drop=0.0,
                                      duplicate=0.4, bandwidth_cap=None)),
    ("send", 0.0, "n0", "solo", 0)]


def _apply(fabric, send, n, op, rngs):
    """Apply the ``n``-th op (of ``_op``) now; a send's payload is ``n``."""
    if op[0] == "send":
        _kind, _gap_s, src, dst, size = op
        group = dst if dst in ("g", "solo", "nogroup") else ""
        send(fabric, Message(src, MULTICAST if group else dst, "oneway",
                             payload=n, size=size, group=group, msg_id=n + 1))
    elif op[0] == "alive":
        fabric.hosts[op[2]].alive = op[3]
    elif op[0] == "partition":
        fabric.partition([op[2]], [op[3]], symmetric=op[4])
    elif op[0] == "heal":
        fabric.heal()
    elif op[0] == "degrade":
        rngs.append(random.Random(n))
        fabric.degrade_link(op[2], op[3], LinkFault(rng=rngs[-1], **op[4]))
    elif op[0] == "restore":
        fabric.restore_link(op[2], op[3])
    elif op[0] == "member":
        (fabric.subscribe if op[3] else fabric.unsubscribe)("g", op[2])


def _wire_world(send, ops, with_transit):
    """Apply ``ops`` to a fresh five-host fabric, sending through
    ``send(fabric, msg)``; returns everything observable."""
    sim = Simulator()
    fabric = Fabric(sim)
    delivered = []
    for name in _HOSTS:
        host = Host(sim, name)
        fabric.attach(host)
        fabric.subscribe("g", name)
        host.deliver = lambda msg, h=name: delivered.append(
            (sim.now, h, msg.payload))
    fabric.hosts["n4"].deliver = None       # attached, no runtime yet
    fabric.subscribe("g", "ghost")          # subscribed, never attached
    fabric.subscribe("solo", "n1")          # a one-member group
    if with_transit:
        fabric.transit = _RecordingTransit()
    rngs = []
    scheduled = []

    def pending():
        """Every scheduled delivery as (instant, lane, seq, receiver)."""
        return sorted((when, lane, seq, ev.a.hostid)
                      for when, _prio, lane, seq, ev in sim._heap)

    for n, op in enumerate(ops):
        sim.run(until=sim.now + op[1])
        _apply(fabric, send, n, op, rngs)
        if op[0] == "send":
            scheduled.append(pending())
    sim.run()
    pipes = {h: (host.nic.tx._ready_at, host.nic.tx.bytes_transferred,
                 host.nic.rx._ready_at, host.nic.rx.bytes_transferred)
             for h, host in fabric.hosts.items()}
    return {
        "scheduled": scheduled, "delivered": delivered, "pipes": pipes,
        "counters": (fabric.messages_sent, fabric.messages_dropped,
                     fabric.messages_duplicated),
        "rng": [r.getstate() for r in rngs],
        "transit": fabric.transit.submitted if with_transit else None,
        "kernel": (sim.now, sim._nprocessed, sim._seq),
        "peak_pending": sim.peak_pending,
    }


@given(ops=st.lists(_op, min_size=1, max_size=40), with_transit=st.booleans())
@example(ops=_DENSE, with_transit=False)
@example(ops=_DENSE, with_transit=True)
@example(ops=_SOLO_TWICE, with_transit=False)
@settings(max_examples=300, deadline=None)
def test_send_matches_the_general_loop_it_replaced(ops, with_transit):
    """Unicast, loopback and multicast through ``Fabric.send`` against
    the one general per-copy loop, under partitions, link faults with
    wildcard ends, dead and unattached receivers, a one-member group and
    a transit: the same deliveries scheduled at the same (instant, lane,
    seq), the same state left on every pipe, the same counters, the same
    fault-RNG state, the same copies handed to the transit, the same
    high-water mark of pending entries: one per copy in both."""
    got = _wire_world(Fabric.send, ops, with_transit)
    want = _wire_world(_reference_send, ops, with_transit)
    for key in want:
        assert got[key] == want[key], key


def test_lanes_from_host_halves_are_the_joined_string_lanes():
    """crc32 chains: ``Host.lane_to``, from the half each host keeps, is
    :func:`delivery_lane` of the joined pair — on 1 000 random pairs of
    host names (non-ASCII ones too), and on the lanes a send actually
    schedules."""
    rng = random.Random(7)
    alphabet = "abcxyz019-_.:é中"
    names = sorted({"".join(rng.choice(alphabet)
                            for _ in range(rng.randint(1, 12)))
                    for _ in range(200)})
    sim = Simulator()
    hosts = {name: Host(sim, name) for name in names}
    for _ in range(1000):
        a, b = rng.sample(names, 2)
        assert hosts[a].lane_to(hosts[b]) == delivery_lane(a, b)
    fabric = Fabric(sim)
    for name in names[:3]:
        fabric.attach(hosts[name])
        hosts[name].deliver = lambda msg: None
    fabric.send(Message(names[0], names[1], "oneway", size=8))
    fabric.send(Message(names[2], names[2], "oneway", size=8))
    assert sorted(lane for _t, _p, lane, _s, _ev in sim._heap) == sorted(
        [delivery_lane(names[0], names[1]), delivery_lane(names[2], names[2])])


# ------------------------------------- what a delivery finds in the FIFOs
_then = st.sampled_from(["", "", "soon", "event", "later0", "answer"])


def _fifo_world(ops, with_transit):
    """Apply ``ops`` (each with what its receivers do next) to a fresh
    five-host fabric — with a real serial ``Transit`` for n3/n4 when
    ``with_transit`` — and return, per delivery, whether both zero-delay
    FIFOs were empty when ``Fabric._deliver_copy`` ran.  Receivers queue
    urgent and ordinary zero-delay work and send answers from inside
    their deliveries (a multicast's later copies still pending), and
    every send arms a local timer on its loopback instant that queues
    zero-delay work there too."""
    sim = Simulator()
    fabric = Fabric(sim)
    found = []

    def noop(_a, _b):
        pass

    def deliver(msg, host):
        found.append((sim.now, host, not sim._imm0 and not sim._imm1))
        then = ops[msg.payload][1] if msg.kind == "oneway" else ""
        if then == "soon":
            sim.call_soon(noop, None, None)
        elif then == "event":
            sim.event().succeed()
        elif then == "later0":
            sim.call_later(0.0, noop, None, None)
        elif then == "answer":
            fabric.send(Message(host, msg.src, "resp", payload=msg.payload))

    for name in _HOSTS:
        host = Host(sim, name)
        fabric.attach(host)
        fabric.subscribe("g", name)
        host.deliver = lambda msg, h=name: deliver(msg, h)
    fabric.subscribe("solo", "n1")
    if with_transit:
        fabric.transit = Transit(sim, fabric, PartitionMap(
            dict(_RecordingTransit.assign), 2))
    rngs = []
    for n, (op, _) in enumerate(ops):
        sim.run(until=sim.now + op[1])
        _apply(fabric, Fabric.send, n, op, rngs)
        if op[0] == "send":
            sim.timeout(switch.LOOPBACK_LATENCY).add_callback(
                lambda _e: sim.event().succeed())
    sim.run()
    return found


@given(ops=st.lists(st.tuples(_op, _then), min_size=1, max_size=40),
       with_transit=st.booleans())
@example(ops=[(op, "soon") for op in _DENSE], with_transit=False)
@example(ops=[(op, then) for op, then in zip(
    _DENSE + [("send", 0.0, "n0", "n0", 0), ("send", 0.0, "n3", "g", 96)],
    ["", "soon", "event", "later0", "answer"] * 3)], with_transit=True)
@settings(max_examples=200, deadline=None)
def test_every_delivery_finds_both_fifos_empty(ops, with_transit):
    """The premise of answering an RPC inside its delivery: a delivery
    carries a lane >= 1, so anything queued at its instant sorts before
    it — unicast, loopback, multicast copies, transit replays, under
    partitions and link faults."""
    found = _fifo_world(ops, with_transit)
    assert [f for f in found if not f[2]] == []
