"""Switch fabric: routes messages between attached hosts.

The paper states "none of the following experiments would saturate the
switches", so the fabric itself is non-blocking; only the per-host access
links (NICs) and a fixed per-hop propagation/switching latency are
modelled.  Multicast groups deliver a copy to every subscribed live host
(charging each receiver's rx link).

Delivery is one kernel dispatch per copy, straight into
:meth:`Fabric._deliver_copy` at the arrival instant, and one heap entry
per send: ``sim.call_later`` for one destination (:meth:`Fabric.send`),
one ``sim.call_fanout`` train per distinct arrival instant for a group
(:meth:`Fabric._multicast`) — except a heartbeat from a sender its
receiver already counts as a member, which goes on the receiver's board
(:class:`Host`) and is no event.  The fabric owns the message envelope
after ``send`` and returns it to the :mod:`repro.network.message`
free-list once the last copy has been handed to (or dropped by) its
receiver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Set, Tuple
from zlib import crc32

from repro.network.message import (
    HEADER_BYTES,
    MULTICAST,
    Message,
    release_message,
)
from repro.network.nic import NIC, FAST_ETHERNET_BPS
from repro.sim import Simulator

#: One-way propagation + switching latency per message (switched LAN).
DEFAULT_LATENCY = 80e-6

#: Loopback latency for a host messaging itself (kernel round, no wire).
LOOPBACK_LATENCY = 5e-6


class Host:
    """A network attachment point: a NIC plus liveness and a dispatcher.

    Cluster nodes wrap or subclass this; the fabric only needs ``hostid``,
    ``alive``, ``nic``, the deliver callback installed by the host's
    ``runtime.ServiceRuntime``, and ``board``: a membership view's
    ``(group, members, entries)`` (:meth:`Fabric._multicast`).
    """

    def __init__(self, sim: Simulator, hostid: str, rate: float = FAST_ETHERNET_BPS):
        self.sim = sim
        self.hostid = hostid
        self.alive = True
        self.nic = NIC(sim, rate)
        self.deliver: Optional[Callable[[Message], None]] = None
        self.board: Optional[tuple] = None
        self._lane_src = crc32(f"{hostid}\x00".encode())
        self._lane_dst = hostid.encode()

    def lane_to(self, dst: "Host") -> int:
        """The same-instant lane of deliveries to ``dst`` (why lanes exist:
        :class:`~repro.sim.Simulator`): 30 bits of the crc32 of
        ``"<src>\\x00<dst>"`` plus one — stable across launches, unlike
        ``hash()``.  crc32 chains, so each host keeps its half.  Both send
        paths inline it: their call ceilings forbid a frame per copy."""
        return 1 + (crc32(dst._lane_dst, self._lane_src) & 0x3FFFFFFF)


@dataclass(frozen=True)
class LinkFault:
    """Degradation installed on a directed link (see :mod:`repro.faults`).

    All probabilistic decisions draw from ``rng`` — a named stream owned
    by the fault plane — so same-seed replays stay bit-identical.
    """

    rng: Any                        # random.Random-compatible stream
    extra_latency: float = 0.0      # deterministic added one-way delay (s)
    jitter: float = 0.0             # uniform [0, jitter) extra delay (s)
    drop: float = 0.0               # per-copy drop probability
    duplicate: float = 0.0          # per-copy duplication probability
    bandwidth_cap: Optional[float] = None  # bytes/s ceiling on this link


class Fabric:
    """The cluster interconnect.

    Each kind of send has one function; both admit a copy by the same
    rules in the same order — partition, transit, liveness, link faults
    (docs/faults.md § Where the fabric applies them).  None is a fork:
    with nothing installed a copy pays three falsy checks, draws no RNG.
    """

    def __init__(self, sim: Simulator, latency: float = DEFAULT_LATENCY):
        self.sim = sim
        self.latency = latency
        self.hosts: Dict[str, Host] = {}
        # Insertion-ordered (dict, not set): multicast iterates the
        # members, and set order varies with PYTHONHASHSEED — which
        # would make delivery order differ between interpreter runs.
        self.groups: Dict[str, Dict[str, None]] = {}
        self.messages_sent = 0
        self.messages_dropped = 0
        self.messages_duplicated = 0
        # Directed (src, dst) pairs the switch refuses to forward.
        self._blocked: Set[Tuple[str, str]] = set()
        # Directed link degradations; "*" wildcards either end.
        self._link_faults: Dict[Tuple[str, str], LinkFault] = {}
        # Conservative-parallel transit (repro.sim.parallel.Transit), duck
        # typed so the fabric never imports the parallel layer; it replays
        # cross-partition copies on the owning side in (arrive,
        # src_partition, seq) order.
        self.transit = None

    # -- fault plane -----------------------------------------------------
    def partition(self, side_a: Iterable[str], side_b: Iterable[str],
                  symmetric: bool = True) -> None:
        """Stop forwarding from ``side_a`` to ``side_b`` (and back, when
        symmetric).  Loopback is untouched: a host always reaches itself."""
        for a in side_a:
            for b in side_b:
                if a == b:
                    continue
                self._blocked.add((a, b))
                if symmetric:
                    self._blocked.add((b, a))

    def heal(self, side_a: Optional[Iterable[str]] = None,
             side_b: Optional[Iterable[str]] = None) -> None:
        """Undo partitions: with no arguments, every block is lifted;
        otherwise only the (a, b) pairs (both directions) are."""
        if side_a is None or side_b is None:
            self._blocked.clear()
            return
        for a in side_a:
            for b in side_b:
                self._blocked.discard((a, b))
                self._blocked.discard((b, a))

    def degrade_link(self, src: str, dst: str, fault: LinkFault) -> None:
        """Install a :class:`LinkFault` on the directed ``src -> dst``
        link; either end may be ``"*"``.  Most specific match wins."""
        self._link_faults[(src, dst)] = fault

    def restore_link(self, src: str = "*", dst: str = "*") -> None:
        """Remove a previously-installed link degradation (no-op if
        absent)."""
        self._link_faults.pop((src, dst), None)

    # -- membership of the wire ----------------------------------------
    def attach(self, host: Host) -> None:
        if host.hostid in self.hosts:
            raise ValueError(f"duplicate hostid {host.hostid!r}")
        self.hosts[host.hostid] = host

    def subscribe(self, group: str, hostid: str) -> None:
        self.groups.setdefault(group, {})[hostid] = None

    def unsubscribe(self, group: str, hostid: str) -> None:
        members = self.groups.get(group)
        if members is not None:
            members.pop(hostid, None)

    # -- transmission ----------------------------------------------------
    # Cut-through model: the receiver starts draining as soon as the
    # sender starts transmitting (plus propagation latency), so a large
    # transfer costs ~size/rate once, not twice.  Both the tx and rx
    # links are still reserved for the full byte count.
    def send(self, msg: Message) -> None:
        """Transmit ``msg``; delivery happens asynchronously in sim time.
        The fabric takes ownership: callers must not touch ``msg`` again."""
        src_id = msg.src
        src = self.hosts.get(src_id)
        if src is None or not src.alive:
            release_message(msg)  # a dead host sends nothing
            return
        self.messages_sent += 1
        dst_id = msg.dst
        if dst_id == MULTICAST:
            self._multicast(src, msg)
            return
        sim = self.sim
        if dst_id == src_id:
            # Loopback: co-located client and daemon skip the NIC entirely
            # ("data transfers do not need to go through network", §3.7.2).
            msg._refs = 1
            sim.call_later(LOOPBACK_LATENCY, self._deliver_copy, src, msg,
                           src.lane_to(src))
            return
        wire = msg.size + HEADER_BYTES
        tx_start, tx_done = src.nic.tx.reserve(wire)
        transit = self.transit
        cross = transit is not None and transit.is_cross(src_id, dst_id)
        dst = None if cross else self.hosts.get(dst_id)
        ncopies, extra = 1, 0.0
        if (self._blocked and (src_id, dst_id) in self._blocked) or not (
                cross or (dst is not None and dst.alive and dst.deliver is not None)):
            self.messages_dropped += 1
            ncopies = 0
        elif self._link_faults:
            ncopies, extra = self._degrade(src_id, dst_id, wire)
        if cross and ncopies:
            # Transit copies the fields out; it never holds the envelope.
            transit.submit(msg, [(dst_id, extra)] * ncopies, tx_done)
            ncopies = 0
        msg._refs = ncopies
        if not ncopies:
            release_message(msg)
            return
        head = tx_start + self.latency + extra      # first byte at the receiver
        tail = tx_done + self.latency + extra       # last byte, rx link permitting
        now = sim.now
        lane = 1 + (crc32(dst._lane_dst, src._lane_src) & 0x3FFFFFFF)
        while ncopies:                              # twice when duplicated
            rx_done = dst.nic.rx.reserve(wire, head)[1]
            sim.call_later((rx_done if rx_done > tail else tail) - now,
                           self._deliver_copy, dst, msg, lane)
            ncopies -= 1

    def _multicast(self, src: Host, msg: Message) -> None:
        """One tx reservation, one rx reservation per copy, one train per
        arrival instant: ``{instant: [(lane, dst)]}`` in member order.  A
        copy on a receiver's board group from a sender in its members is
        appended there as ``(when, 1, lane, seq, payload)`` instead: the
        key its delivery would have had, and no event."""
        sim = self.sim
        now = sim.now
        src_id = msg.src
        src_crc = src._lane_src
        group = msg.group
        wire = msg.size + HEADER_BYTES
        tx_start, tx_done = src.nic.tx.reserve(wire)
        head = first = tx_start + self.latency
        tail = last = tx_done + self.latency
        extra = 0.0
        hosts, blocked, faults, transit = (
            self.hosts, self._blocked, self._link_faults, self.transit)
        trains: Dict[float, list] = {}
        xcopies: list = []
        copies = 0
        for hostid in self.groups.get(group) or ():
            if hostid == src_id:
                continue
            cross = transit is not None and transit.is_cross(src_id, hostid)
            dst = None if cross else hosts.get(hostid)
            if (blocked and (src_id, hostid) in blocked) or not (
                    cross or (dst is not None and dst.alive and dst.deliver is not None)):
                self.messages_dropped += 1
                continue
            ncopies = 1
            if faults:
                ncopies, extra = self._degrade(src_id, hostid, wire)
                if not ncopies:
                    continue
                first = head + extra
                last = tail + extra
            if cross:
                xcopies.extend([(hostid, extra)] * ncopies)
                continue
            lane = 1 + (crc32(dst._lane_dst, src_crc) & 0x3FFFFFFF)
            board = dst.board
            if board is not None and (board[0] != group or src_id not in board[1]):
                board = None                # not a member's heartbeat
            while ncopies:
                rx_done = dst.nic.rx.reserve(wire, first)[1]
                # Keyed by the float ``call_later`` would have stored
                # (not always the arrival itself), so ties fall where one
                # ``call_later`` per copy would put them.
                when = now + ((rx_done if rx_done > last else last) - now)
                ncopies -= 1
                if board is not None:       # and the seq it would draw
                    board[2].append((when, 1, lane, sim.draw_seq(),
                                     msg.payload))
                    continue
                copies += 1
                stops = trains.get(when)
                if stops is None:
                    trains[when] = [(lane, dst)]
                else:
                    stops.append((lane, dst))
        # Nothing fires before the next sim.step(), so the refcount is
        # safely published after the loop.
        msg._refs = copies
        for when, stops in trains.items():
            sim.call_fanout(when, self._deliver_copy, stops, msg)
        if xcopies:
            transit.submit(msg, xcopies, tx_done)
        if copies == 0:
            release_message(msg)

    def _degrade(self, src: str, dst: str, wire: int) -> Tuple[int, float]:
        """What the link faults do to one copy: ``(copies delivered, added
        one-way delay)``.  Same-seed replay depends on the RNG draw order:
        drop, duplicate, jitter, each only if that knob is set."""
        faults = self._link_faults
        fault = (faults.get((src, dst)) or faults.get((src, "*"))
                 or faults.get(("*", dst)) or faults.get(("*", "*")))
        if fault is None:
            return 1, 0.0
        rng = fault.rng
        if fault.drop and rng.random() < fault.drop:
            self.messages_dropped += 1
            return 0, 0.0
        ncopies = 1
        if fault.duplicate and rng.random() < fault.duplicate:
            ncopies = 2
            self.messages_duplicated += 1
        extra = fault.extra_latency
        if fault.jitter:
            extra += rng.random() * fault.jitter
        if fault.bandwidth_cap:
            extra += wire / fault.bandwidth_cap
        return ncopies, extra

    def _deliver_copy(self, dst: Host, msg: Message) -> None:
        if dst.alive and dst.deliver is not None:
            dst.deliver(msg)
        msg._refs -= 1
        if msg._refs <= 0:
            release_message(msg)
