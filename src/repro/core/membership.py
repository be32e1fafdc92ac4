"""Membership management and load monitoring (Section 3.3).

All storage providers periodically announce heartbeats on a multicast
channel; every node's membership manager builds the live-provider set as
*soft state* from the same channel.  A provider missing for five
announcement intervals is removed.  Heartbeats piggyback the load and
storage-availability information that the placement policy consumes.

A heartbeat from a known member is read where it lands: it waits on the
node's *board* under the key its delivery would have had, and a view
access reads the entries whose key precedes the event dispatching then.
Only a stranger's heartbeat — a join, which fires callbacks — is an event.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

HEARTBEAT_GROUP = "sorrento-hb"

#: Default announcement interval (seconds).
DEFAULT_INTERVAL = 1.0

#: Missed-interval multiplier before a provider is declared dead.
DEATH_FACTOR = 5

#: Wire size of one heartbeat packet.
HEARTBEAT_BYTES = 96


@dataclass(frozen=True, slots=True)
class ProviderInfo:
    """Soft state about one live storage provider, as it announced
    itself.  Frozen: one record per announcement is shared by every
    node's view (and every :meth:`MembershipManager.snapshot`)."""

    hostid: str
    load: float = 0.0             # combined CPU + I/O-wait load, [0, 1]
    io_wait: float = 0.0          # EWMA I/O wait (migration trigger input)
    available: int = 0            # free bytes
    utilization: float = 0.0      # consumed-space fraction
    last_seen: float = 0.0        # when the provider announced this


class MembershipManager:
    """Runs on every cluster node; providers also announce.

    Scale-mindful internals:

    * When each member was last *heard* is a flat ``{hostid: instant}``
      in member order: a death check is one ``min()``, a scan on expiry.
    * ``snapshot()`` and ``live_providers()`` are generation-cached:
      the hot placement path stops copying the full member dict per
      call.  The returned objects are *shared and read-only* (the
      values are frozen dataclasses; callers never mutate the views).
    * A view access that shows more than the member set reads the board
      first; a removal or a crash turns unread entries into deliveries.
    """

    def __init__(self, node, interval: float = DEFAULT_INTERVAL,
                 announce: bool = False):
        self.node = node
        self.sim = node.sim
        self.interval = interval
        self.members: Dict[str, ProviderInfo] = {}
        self.on_join: List[Callable[[str], None]] = []
        self.on_leave: List[Callable[[str], None]] = []
        self.announce = announce
        # hostid → when this node last heard it; ``members``' keys and order.
        self._seen: Dict[str, float] = {}
        # Generation counters: _gen bumps on any member change, _key_gen
        # only when the *set* of hosts changes (join/death).
        self._gen = 0
        self._key_gen = 0
        self._snap: Dict[str, ProviderInfo] = {}
        self._snap_gen = -1
        self._live: List[str] = []
        self._live_gen = -1
        # Unread heartbeats of members: (when, 1, lane, seq, (svc, info)).
        self._board: List[tuple] = []
        node.board = (HEARTBEAT_GROUP, self.members, self._board)
        self.rpc = node.runtime
        self.rpc.subscribe(HEARTBEAT_GROUP)
        self.rpc.register("heartbeat", self._observe)
        node.daemon(self._check_loop, "member-check")
        if announce:
            node.daemon(self._announce_loop, "hb-announce")
        node.on_crash.append(self._hand_back)
        node.on_restart.append(self._fresh_view)
        self._fresh_view()

    def _fresh_view(self) -> None:
        """The view at boot: empty, except that a provider is
        immediately a member of its own."""
        self.clear()
        if self.announce:
            self._observe(self._self_info())

    def clear(self) -> None:
        """Forget the whole view (node restart: the view is soft state
        and rebuilds from heartbeats).  Fires no leave callbacks — a
        restart is not a death verdict on everyone else."""
        self._hand_back()
        self.members.clear()
        self._seen.clear()
        self._gen += 1
        self._key_gen += 1

    # -- views ------------------------------------------------------------
    def live_providers(self) -> List[str]:
        """Sorted live hostids — cached until the host *set* changes.

        Callers must treat the list as read-only (they do: it feeds ring
        lookups and iteration).  Sharing one object also lets the hash
        ring's identity fast path skip reconciliation entirely."""
        if self._live_gen != self._key_gen:
            self._live = sorted(self.members)
            self._live_gen = self._key_gen
        return self._live

    def info(self, hostid: str) -> Optional[ProviderInfo]:
        self._read_board()
        return self.members.get(hostid)

    def last_heard(self, hostid: str) -> Optional[float]:
        """When this node last received ``hostid``'s heartbeat (the
        death check's clock), or None for a non-member."""
        self._read_board()
        return self._seen.get(hostid)

    def snapshot(self) -> Dict[str, ProviderInfo]:
        """A stable view of the current membership — cached per
        generation, rebuilt only after a membership mutation.

        The values are immutable (the senders' own frozen records,
        shared by every view) and no caller mutates the dict — a
        per-generation copy — so one object serves every placement
        decision between heartbeats."""
        self._read_board()
        if self._snap_gen != self._gen:
            self._snap = dict(self.members)
            self._snap_gen = self._gen
        return self._snap

    # -- announcement -------------------------------------------------
    def _self_info(self) -> ProviderInfo:
        return ProviderInfo(
            hostid=self.node.hostid,
            load=self.node.load,
            io_wait=self.node.io_wait,
            available=self.node.storage_available,
            utilization=self.node.storage_utilization,
            last_seen=self.sim.now,
        )

    def _announce_loop(self):
        while True:
            info = self._self_info()
            self._observe(info)  # keep self fresh in the local view
            self.rpc.multicast(
                HEARTBEAT_GROUP, "heartbeat", info, size=HEARTBEAT_BYTES
            )
            yield self.sim.timeout(self.interval)

    # -- reception ----------------------------------------------------------
    def _read_board(self) -> None:
        """Read, in key order, every entry whose key precedes the event
        dispatching now (between runs: every entry landed by now)."""
        board = self._board
        if board:
            board.sort()
            n = bisect_left(board, self.sim._key or (self.sim.now, 3))
            for when, _prio, _lane, _seq, (_svc, info) in board[:n]:
                self.members[info.hostid] = info
                self._seen[info.hostid] = when
            if n:
                del board[:n]
                self._gen += 1

    def _hand_back(self) -> None:
        """Make every unread entry the delivery it would have been, under
        its own key (its sender may be a stranger by the time it lands)."""
        self._read_board()
        for when, prio, lane, seq, (_svc, info) in self._board:
            self.sim.call_at(when, self._observe, info, "", prio, lane, seq)
        self._board.clear()

    def _observe(self, info: ProviderInfo, src: str = "") -> None:
        # The heartbeat handler: the sender's record as is, stamped here.
        if not self.node.alive:     # a copy handed back lands on a dead node
            return
        self._read_board()
        hostid = info.hostid
        is_new = hostid not in self.members
        self.members[hostid] = info
        self._seen[hostid] = self.sim.now
        self._gen += 1
        if is_new:
            self._key_gen += 1
            for cb in list(self.on_join):
                cb(hostid)

    def _check_loop(self):
        while True:
            yield self.sim.timeout(self.interval)
            self._read_board()
            deadline = self.sim.now - DEATH_FACTOR * self.interval
            seen = self._seen
            if not seen or min(seen.values()) >= deadline:
                continue
            # In member order: replay goldens depend on how deaths fire.
            dead = [h for h, t in seen.items() if t < deadline]
            self._hand_back()
            self._gen += 1
            self._key_gen += 1
            for hostid in dead:
                del self.members[hostid]
                del seen[hostid]
                for cb in list(self.on_leave):
                    cb(hostid)
