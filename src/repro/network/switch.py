"""Switch fabric: routes messages between attached hosts.

The paper states "none of the following experiments would saturate the
switches", so the fabric itself is non-blocking; only the per-host access
links (NICs) and a fixed per-hop propagation/switching latency are
modelled.  Multicast groups deliver a copy to every subscribed live host
(charging each receiver's rx link).

Delivery is one kernel dispatch per copy, straight into
:meth:`Fabric._deliver_copy` at the arrival instant, and one heap entry
per send: ``sim.call_later`` for one destination, one ``sim.call_fanout``
train per distinct arrival instant for several.  The fabric owns the
message envelope after ``send`` and returns it to the
:mod:`repro.network.message` free-list once the last copy has been
handed to (or dropped by) its receiver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Optional, Set, Tuple

from repro.network.message import (
    MULTICAST,
    Message,
    delivery_lane,
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
    ``alive``, ``nic``, and the deliver callback installed by the host's
    ``runtime.ServiceRuntime``.
    """

    def __init__(self, sim: Simulator, hostid: str, rate: float = FAST_ETHERNET_BPS):
        self.sim = sim
        self.hostid = hostid
        self.alive = True
        self.nic = NIC(sim, rate)
        self.deliver: Optional[Callable[[Message], None]] = None


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

    Fault hooks (partitions, degraded links) are inert until installed:
    the hot path only pays two falsy checks per transmit, draws no RNG,
    and schedules no extra events when no fault is active.
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
        # typed so the fabric never imports the parallel layer.  When
        # installed, copies whose destination lives in another partition
        # are handed to it at tx completion instead of being scheduled
        # for direct delivery; it replays them on the owning side in
        # (arrive, src_partition, seq) order.
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

    def restore_all_links(self) -> None:
        self._link_faults.clear()

    def _fault_for(self, src: str, dst: str) -> Optional[LinkFault]:
        faults = self._link_faults
        for key in ((src, dst), (src, "*"), ("*", dst), ("*", "*")):
            fault = faults.get(key)
            if fault is not None:
                return fault
        return None

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
    def send(self, msg: Message) -> None:
        """Transmit ``msg``; delivery happens asynchronously in sim time.

        The fabric takes ownership of ``msg`` — callers must not touch it
        after this returns.
        """
        src = self.hosts.get(msg.src)
        if src is None or not src.alive:
            release_message(msg)  # a dead host sends nothing
            return
        self.messages_sent += 1
        if msg.dst == MULTICAST:
            members = self.groups.get(msg.group)
            targets = [h for h in members if h != msg.src] if members else ()
        elif msg.dst == msg.src:
            # Loopback: co-located client and daemon skip the NIC entirely
            # ("data transfers do not need to go through network", §3.7.2).
            msg._refs = 1
            self.sim.call_later(LOOPBACK_LATENCY, self._deliver_copy, src, msg,
                                lane=delivery_lane(msg.src, msg.src))
            return
        else:
            targets = (msg.dst,)
        self._transmit(src, targets, msg)

    def _transmit(self, src: Host, targets, msg: Message) -> None:
        # Cut-through model: the receiver starts draining as soon as the
        # sender starts transmitting (plus propagation latency), so a
        # large transfer costs ~size/rate once, not twice.  Both the tx
        # and rx links are still reserved for the full byte count.
        sim = self.sim
        now = sim.now
        blocked = self._blocked
        have_faults = bool(self._link_faults)
        transit = self.transit
        tx_start, tx_done = src.nic.tx.reserve(msg.wire_size)
        copies = 0
        xcopies = None
        # A multi-destination message rides one train per arrival
        # instant: {instant: [(lane, dst)]}, copies in send order.
        trains = {} if len(targets) > 1 else None
        for hostid in targets:
            # Partition: the copy leaves the sender's NIC and dies in the
            # switch — tx time is charged, the receiver sees nothing.
            if blocked and (msg.src, hostid) in blocked:
                self.messages_dropped += 1
                continue
            # Cross-partition copies skip the sender-side liveness check
            # and rx reservation: the receiving side performs both when it
            # drains the record at the partition boundary (identically in
            # serial-with-map and parallel runs).
            cross = transit is not None and transit.is_cross(msg.src, hostid)
            if not cross:
                dst = self.hosts.get(hostid)
                if dst is None or not dst.alive or dst.deliver is None:
                    self.messages_dropped += 1
                    continue
            ncopies, extra = 1, 0.0
            if have_faults:
                fault = self._fault_for(msg.src, hostid)
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
                        extra += msg.wire_size / fault.bandwidth_cap
            if cross:
                if xcopies is None:
                    xcopies = []
                for _ in range(ncopies):
                    xcopies.append((hostid, extra))
                continue
            for _ in range(ncopies):
                _rx_start, rx_done = dst.nic.rx.reserve(
                    msg.wire_size, not_before=tx_start + self.latency + extra)
                arrive = max(tx_done + self.latency + extra, rx_done)
                lane = delivery_lane(msg.src, hostid)
                if trains is None:
                    sim.call_later(arrive - now, self._deliver_copy, dst, msg,
                                   lane=lane)
                else:
                    # Keyed by the float ``call_later`` would have stored
                    # (not always ``arrive``), so ties fall where they did.
                    trains.setdefault(now + (arrive - now), []).append(
                        (lane, dst))
                copies += 1
        # Nothing fires before the next sim.step(), so the refcount is
        # safely published after the loop.
        msg._refs = copies
        if trains:
            for when, stops in trains.items():
                sim.call_fanout(when, self._deliver_copy, stops, msg)
        if xcopies:
            # Transit copies the fields out synchronously; it never holds
            # the envelope, so releasing on copies == 0 below stays safe.
            transit.submit(msg, xcopies, tx_done)
        if copies == 0:
            release_message(msg)

    def _deliver_copy(self, dst: Host, msg: Message) -> None:
        if dst.alive and dst.deliver is not None:
            dst.deliver(msg)
        msg._refs -= 1
        if msg._refs <= 0:
            release_message(msg)
