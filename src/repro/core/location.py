"""Location soft state: the home-host table and the client-side cache.

Section 3.4.1: each provider, as a *home host*, tracks which providers
(*owners*) store each of the segments hashed to it.  Entries are refreshed
periodically (content refreshing), updated eagerly on segment create /
delete / version change, adjusted on membership events, and purged by age
when a ring change moves a SegID's home elsewhere.

Section 3.4's lazy propagation explicitly tolerates stale location
information — versioning catches mismatches — which is what licenses the
client-side :class:`ClientLocationCache`: a TTL'd per-client mirror of
owner/version claims, populated from ``loc_lookup`` responses and the
owner hints piggybacked on data-path replies, and evicted on version
mismatch, RPC timeout, and membership death events.

A provider's two sides of the protocol sit beside the table:
:class:`LocationHome`, the home-host role that alone changes it, and
:class:`LocationOwner`, which announces the provider's own segments.
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.hashing import HashRing
from repro.core.membership import MembershipManager
from repro.core.params import SorrentoParams
from repro.core.placement import choose_provider
from repro.core.segment import SegmentStore, StoredSegment

PURGE_AGE_FACTOR = 2.5       # a home purges records older than this
#                              many refresh cycles
LOC_ENTRY_BYTES = 40         # wire size of one location entry
# Calibration (DESIGN.md § 1): CPU charged by the provider daemon, in
# reference-GHz-seconds.
OP_CPU = 3e-4                # per request
BYTE_CPU = 2e-8              # per byte through the daemon
LOC_CACHE_TTL = 30.0         # client-side owner/version entry lifetime (s)
LOC_CACHE_CAPACITY = 4096    # entries per client


@dataclass(slots=True)
class OwnerRecord:
    """One owner's claim on a segment."""

    version: int
    degree: int          # desired replication degree for the segment
    size: int
    last_refresh: float


class LocationTable:
    """SegID → {owner → OwnerRecord} with age-based garbage collection.

    One dict of rows (plus when each segid was first heard of) and no
    secondary index: the two paths an index could serve are rare and
    small.  ``purge`` runs once per refresh cycle (15 min) per provider
    and ``drop_owner`` once per membership death; each is one pass over
    this home host's rows — ≈ 0.1 ms at the few hundred to few thousand
    rows a table holds — where a refresh wheel and an owner index cost
    every ``update`` more than that in total (docs/performance.md
    § Location table).
    """

    def __init__(self) -> None:
        self._entries: Dict[int, Dict[str, OwnerRecord]] = {}
        self._first_seen: Dict[int, float] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, segid: int) -> bool:
        return segid in self._entries

    def segids(self) -> List[int]:
        return list(self._entries)

    # -- updates ------------------------------------------------------------
    def update(self, segid: int, owner: str, version: int, degree: int,
               size: int, now: float) -> None:
        """Insert or refresh one owner's record."""
        owners = self._entries.get(segid)
        if owners is None:
            owners = self._entries[segid] = {}
            self._first_seen[segid] = now
        rec = owners.get(owner)
        if rec is None or version >= rec.version:
            owners[owner] = OwnerRecord(version, degree, size, now)
        else:
            rec.last_refresh = now  # stale announce still proves liveness

    def remove(self, segid: int, owner: str) -> None:
        """Drop one owner's record (segment deleted or migrated away)."""
        owners = self._entries.get(segid)
        if owners is None:
            return
        owners.pop(owner, None)
        if not owners:
            del self._entries[segid]
            del self._first_seen[segid]

    def drop_owner(self, hostid: str) -> List[int]:
        """Node departure: purge every record owned by ``hostid``.

        Returns the SegIDs affected (the provider re-checks their
        replication degree afterwards) in table-insertion order, which
        is the dict's own: a segid enters ``_entries`` with its first
        row and leaves with its last.
        """
        affected = [s for s, owners in self._entries.items()
                    if hostid in owners]
        for segid in affected:
            self.remove(segid, hostid)
        return affected

    # -- queries ------------------------------------------------------------
    def age(self, segid: int, now: float) -> float:
        """How long this home host has known about the segment.

        Degree repair must wait for the entry to mature: right after a
        home-host reassignment the table sees owners trickle in one
        refresh at a time, and acting on that partial view would spawn
        spurious replicas.
        """
        first = self._first_seen.get(segid)
        return now - first if first is not None else 0.0

    def lookup(self, segid: int) -> List[Tuple[str, int]]:
        """Owners of a segment as (hostid, version), newest first."""
        owners = self._entries.get(segid, {})
        return sorted(
            ((h, rec.version) for h, rec in owners.items()),
            key=lambda p: -p[1],
        )

    def record(self, segid: int, owner: str) -> Optional[OwnerRecord]:
        return self._entries.get(segid, {}).get(owner)

    def latest_version(self, segid: int) -> Optional[int]:
        owners = self._entries.get(segid)
        if not owners:
            return None
        return max(rec.version for rec in owners.values())

    def discrepancies(self, segid: int) -> Tuple[int, List[str], List[str]]:
        """(latest version, up-to-date owners, stale owners) for a segment.

        The home host uses this on every insert/refresh to drive lazy
        update propagation (Section 3.6).
        """
        owners = self._entries.get(segid, {})
        if not owners:
            return 0, [], []
        latest = max(rec.version for rec in owners.values())
        current = [h for h, rec in owners.items() if rec.version == latest]
        stale = [h for h, rec in owners.items() if rec.version < latest]
        return latest, current, stale

    # -- garbage collection -------------------------------------------------
    def purge(self, now: float, max_age: float) -> int:
        """Remove records not refreshed within ``max_age``; returns count.

        "Since valid entries will be refreshed periodically while garbage
        entries will never be refreshed, the latter can be identified
        based on their ages and eventually be purged."
        """
        cutoff = now - max_age
        stale = [(segid, host)
                 for segid, owners in self._entries.items()
                 for host, rec in owners.items()
                 if rec.last_refresh < cutoff]
        for segid, host in stale:
            self.remove(segid, host)
        return len(stale)


class LocationHome:
    """The home-host role: the soft-state :class:`LocationTable` for the
    SegIDs hashed to this provider, and the supervision of their
    replicas' consistency and degree (Sections 3.4.1 and 3.6).

    Every change to the table is one method here, and each says what
    follows it.  The only other writer is the preload
    (``SorrentoDeployment._plant``), which schedules nothing by design.
    """

    def __init__(self, node, params: SorrentoParams, rng: random.Random,
                 membership: MembershipManager):
        self.node, self.sim, self.rpc = node, node.sim, node.runtime
        self.params, self.rng = params, rng   # rng: the provider's own
        self.membership = membership
        self.table = LocationTable()
        self.rpc.register("loc_update", self.loc_update, replace=True)
        self.rpc.register("loc_refresh", self.loc_refresh, replace=True)
        #: (segid, action) -> {host: when sent}: a supervision check reads
        #: one segment's history, not the node's.
        self._repair_recent: Dict[Tuple[int, str], Dict[str, float]] = {}
        self._recheck_pending: set = set()
        self._trim_pending: set = set()

    def loc_update(self, req: dict, src: str) -> None:
        """Eager add/remove of one location entry (segment events)."""
        if req["op"] == "add":
            self.claim(req["segid"], req["owner"], req["version"],
                       req["degree"], req["size"])
        else:
            self.withdraw(req["segid"], req["owner"])

    def loc_refresh(self, req: dict, src: str):
        """Bulk periodic content refreshing from an owner."""
        yield self.node.cpu(
            OP_CPU + LOC_ENTRY_BYTES * len(req["entries"]) * BYTE_CPU)
        self.refresh(req["owner"], req["entries"])
        return True, 32

    # ------------------------------------------- the changes, and what follows
    def claim(self, segid: int, owner: str, version: int, degree: int,
              size: int) -> None:
        """An owner announced or refreshed its copy: supervise now."""
        self.table.update(segid, owner, version, degree, size, self.sim.now)
        self.node.defer(0.0, self._supervise, segid)

    def refresh(self, owner: str, entries: List[tuple]) -> None:
        """One :meth:`claim` per ``(segid, version, degree, size)``."""
        for segid, version, degree, size in entries:
            self.claim(segid, owner, version, degree, size)

    def withdraw(self, segid: int, owner: str) -> None:
        """An owner erased its copy (``loc_update {remove}``, or this
        provider's own erase): supervise now."""
        self.table.remove(segid, owner)
        self.node.defer(0.0, self._supervise, segid)

    def drop_owner(self, hostid: str) -> None:
        """An owner died: re-check each segid it held after
        ``repair_delay``, in table order."""
        for segid in self.table.drop_owner(hostid):
            self.node.defer(self.params.repair_delay, self._supervise, segid)

    def purge(self) -> None:
        """Age out the rows no refresh renewed (once per refresh cycle).
        Nothing follows."""
        self.table.purge(self.sim.now,
                         PURGE_AGE_FACTOR * self.params.refresh_cycle)

    def reset(self) -> None:
        """A restart rebuilds the table from refreshes.  Nothing follows:
        the pending checks died with the node, so their sets are emptied
        too (the repair history is kept)."""
        self.table = LocationTable()
        self._recheck_pending.clear()
        self._trim_pending.clear()

    # ------------------------------------------------------- supervision
    def _supervise(self, segid: int) -> None:
        """Home-host check: push syncs to stale owners, restore degree.
        Like every deferred check here it never waits, so it is a plain
        call (:meth:`Node.defer`): a bug in one raises out of ``sim.run``."""
        latest, current, stale = self.table.discrepancies(segid)
        if not current:
            return
        now = self.sim.now
        source = self.rng.choice(current)
        for host in stale:
            if self._repair_throttled(segid, "sync", host, now):
                continue
            self.rpc.send(host, "seg_sync", {
                "segid": segid, "version": latest, "from": source,
            }, size=48)
        owners = set(current) | set(stale)
        rec = self.table.record(segid, current[0])   # an owner has a row
        degree, size = rec.degree, rec.size
        age = self.table.age(segid, now)
        if age < self.params.repair_grace:
            # Immature entry: owners may still be refreshing in.  Check
            # again once mature (rather than waiting a full refresh cycle).
            if segid not in self._recheck_pending:
                self._recheck_pending.add(segid)
                self.node.defer(self.params.repair_grace - age + 0.1,
                                self._recheck, segid)
            return
        # Replications already in flight (sent recently, not yet owners).
        pending = self._sent_recently(segid, "repl", now) - owners
        deficit = degree - len(owners) - len(pending)
        if deficit > 0:
            members = self.membership.snapshot()
            exclude = owners | pending
            for _ in range(deficit):
                target = choose_provider(
                    self.rng, members, max(size, 1),
                    self.params.default_alpha, exclude=exclude,
                )
                if target is None:
                    return
                exclude.add(target)
                if self._repair_throttled(segid, "repl", target, now):
                    continue
                self.rpc.send(target, "seg_replicate", {
                    "segid": segid, "version": latest, "from": source,
                }, size=48)
        elif not stale and len(owners) > degree:
            # Apparent excess replicas.  NEVER trim immediately: a
            # migration in flight shows two owners for a moment (target
            # announced, source's removal not yet arrived) and trimming
            # then — while the source erases its copy — loses the
            # segment.  Re-verify after a full cooldown instead.
            if segid not in self._trim_pending:
                self._trim_pending.add(segid)
                self.node.defer(self.params.repair_cooldown,
                                self._verify_trim, segid)

    def _verify_trim(self, segid: int) -> None:
        self._trim_pending.discard(segid)
        latest, current, stale = self.table.discrepancies(segid)
        if stale or not current:
            return
        if len(current) <= self.table.record(segid, current[0]).degree:
            return  # the transient resolved itself (migration completed)
        now = self.sim.now
        victim = max(current)
        if not self._repair_throttled(segid, "trim", victim, now):
            self.rpc.send(victim, "seg_trim", {
                "segid": segid, "version": latest,
            }, size=48)

    def _recheck(self, segid: int) -> None:
        self._recheck_pending.discard(segid)
        self._supervise(segid)

    def _sent_recently(self, segid: int, action: str, now: float) -> set:
        """Hosts ``action`` on ``segid`` was sent to within the cooldown."""
        cutoff = now - self.params.repair_cooldown
        sent = self._repair_recent.get((segid, action), {})
        return {h for h, t in sent.items() if t > cutoff}

    def _repair_throttled(self, segid: int, action: str, host: str,
                          now: float) -> bool:
        """Whether ``action`` on ``segid`` went to ``host`` within the
        cooldown; records it as sent now if not."""
        cutoff = now - self.params.repair_cooldown
        sent = self._repair_recent.setdefault((segid, action), {})
        if sent.get(host, -1e18) > cutoff:
            return True
        sent[host] = now
        if len(self._repair_recent) > 10000:
            self._repair_recent = {
                k: live for k, hosts in self._repair_recent.items()
                if (live := {h: t for h, t in hosts.items() if t > cutoff})
            }
        return False


class LocationOwner:
    """The owner's side of location upkeep (Section 3.4.1): a
    ``loc_update`` per segment event and ``loc_refresh`` batches to the
    homes its ring names, which take them without a message when the
    home is this provider.  Join refreshes queue under the keys
    ``node.defer`` would give them, only the first on the heap and none
    while the store is empty (one due then would send nothing)."""

    def __init__(self, home: LocationHome, store: SegmentStore):
        self.home, self.store = home, store
        self.ring = HashRing(home.params.ring_vnodes)
        # The node, the provider's own stream and its view: the home's.
        self.node, self.sim, self.rpc = home.node, home.sim, home.rpc
        self.params, self.rng = home.params, home.rng
        self.membership = home.membership
        self._buckets: tuple = (None, -1, {})   # _by_home's view, gen, dict
        self._joins: List[tuple] = []   # sorted (when, 1, 0, seq, joiner)
        self._armed: set = set()        # seqs of theirs on the sim heap
        store.on_refill = self._arm
        self.node.on_crash.append(self._joins.clear)

    def home_of(self, segid: int) -> Optional[str]:
        members = self.membership.live_providers()
        return self.ring.home_host(segid, members) if members else None

    def announce(self, seg: StoredSegment) -> None:
        """Segment creation / version advance → tell the home host."""
        self._tell_home({"op": "add", "segid": seg.segid,
                         "owner": self.node.hostid, "version": seg.version,
                         "degree": seg.replication_degree, "size": seg.size})

    def retract(self, segid: int) -> None:
        """This provider erased its copy → tell the home host."""
        self._tell_home({"op": "remove", "segid": segid,
                         "owner": self.node.hostid})

    def _tell_home(self, req: dict) -> None:
        home = self.home_of(req["segid"])
        if home == self.node.hostid:
            self.home.loc_update(req, home)
        elif home is not None:
            self.rpc.send(home, "loc_update", req, size=LOC_ENTRY_BYTES)

    # ---------------- membership events (the refresh triggers of §3.4.1)
    def on_join(self, hostid: str) -> None:
        if hostid == self.node.hostid:
            return
        delay = self.rng.random() * self.params.join_refresh_delay_max
        insort(self._joins, (self.membership.joined_at(hostid) + delay, 1,
                             0, self.sim.draw_seq(), hostid))
        self._arm()

    def _arm(self) -> None:
        """Drop what fell due unarmed; arm the first while anything is stored."""
        joins, n = self._joins, 0
        while n < len(joins) and self.sim.fell_due(joins[n]):
            n += 1
        del joins[:n]
        if joins and not self.store.empty and joins[0][3] not in self._armed:
            seq = joins[0][3]
            self._armed.add(seq)
            self.sim.call_at(joins[0][0], self._fire, seq, None, 1, 0, seq)

    def _fire(self, seq: int, _b) -> None:
        self._armed.discard(seq)
        for i, entry in enumerate(self._joins):     # absent after a crash
            if entry[3] == seq:
                del self._joins[:i + 1]     # before it: fell due unarmed
                self._refresh_toward(entry[4])
                break
        self._arm()

    def on_leave(self, hostid: str) -> None:
        """Re-announce the local segments whose home was ``hostid``."""
        self.node.spawn(self._rehome_after_departure(hostid), name="rehome")

    def _rehome_after_departure(self, dead: str):
        members = self.membership.live_providers()
        if not members:
            return
        yield self.sim.timeout(self.rng.random() * 2.0)
        # The view with the dead node goes on a ring of its own: one ring
        # asked about both would switch sets per segment it homed.
        before = sorted(set(members) | {dead})
        old_ring = HashRing(self.params.ring_vnodes)
        by_home: Dict[str, List[int]] = {}
        for seg in self.store.committed_segments():
            if old_ring.home_host(seg.segid, before) == dead:
                by_home.setdefault(self.ring.home_host(seg.segid, members),
                                   []).append(seg.segid)
        yield from self._send_refreshes(by_home)

    def _refresh_toward(self, hostid: str) -> None:
        members = self.membership.live_providers()
        if hostid not in members:
            return  # departed again before we refreshed
        segids = self._by_home(members).get(hostid)
        if segids:
            # The CPU charge is booked; nobody waits for it.
            self._send_refresh(hostid, self._refresh_entries(segids))

    def _by_home(self, members: List[str]) -> Dict[str, List[int]]:
        """``{home: [segid…]}`` in ``committed_segments()`` order, kept
        while neither the member view (by identity, like the ring's fast
        path) nor the store's committed set has changed: one scan answers
        every join of a formation.  Only segids are kept — what is
        announced about each is read when it is sent."""
        view, generation, buckets = self._buckets
        if view is not members or generation != self.store.generation:
            buckets = {}
            for seg in self.store.committed_segments():
                buckets.setdefault(self.ring.home_host(seg.segid, members),
                                   []).append(seg.segid)
            self._buckets = (members, self.store.generation, buckets)
        return buckets

    def _refresh_entries(self, segids: List[int]) -> List[tuple]:
        return [(seg.segid, seg.version, seg.replication_degree, seg.size)
                for seg in map(self.store.latest_committed, segids)]

    # ------------------------------------------------------- bulk refresh
    def refresh_loop(self):
        # Stagger the first cycle so providers do not refresh in lockstep.
        yield self.sim.timeout(self.rng.random() * self.params.refresh_cycle)
        while True:
            yield from self.refresh_everything()
            self.home.purge()
            yield self.sim.timeout(self.params.refresh_cycle)

    def refresh_everything(self, jitter: float = 0.0):
        if jitter:
            yield self.sim.timeout(self.rng.random() * jitter)
        members = self.membership.live_providers()
        if not members:
            return
        yield from self._send_refreshes(self._by_home(members))

    def _send_refreshes(self, by_home: Dict[str, List[int]]):
        """Announce ``{home: [segid…]}``, every entry as it stands now."""
        for home, entries in [(home, self._refresh_entries(segids))
                              for home, segids in by_home.items()]:
            if home == self.node.hostid:
                self.home.refresh(home, entries)
            else:
                yield self._send_refresh(home, entries)

    def _send_refresh(self, home: str, entries: List[tuple]):
        """One ``loc_refresh`` batch to a remote home; returns its CPU charge."""
        self.rpc.send(home, "loc_refresh", {
            "owner": self.node.hostid, "entries": entries,
        }, size=32 + LOC_ENTRY_BYTES * len(entries))
        return self.node.cpu(OP_CPU * (1 + len(entries) / 64))


class TtlCache:
    """A bounded TTL'd map (insertion-order eviction, deterministic).

    Shared plumbing for the client-side caches: segment locations,
    namespace routes, and index-segment metadata.  Expiry is checked
    lazily on ``get``; capacity overflow drops the oldest insertion.
    """

    __slots__ = ("ttl", "capacity", "_entries")

    def __init__(self, ttl: float, capacity: int) -> None:
        self.ttl = ttl
        self.capacity = capacity
        self._entries: Dict[object, Tuple[float, object]] = {}

    def get(self, key, now: float):
        ent = self._entries.get(key)
        if ent is None:
            return None
        if ent[0] <= now:
            del self._entries[key]
            return None
        return ent[1]

    def put(self, key, value, now: float) -> None:
        if self.ttl <= 0 or self.capacity <= 0:
            return
        entries = self._entries
        if key in entries:
            del entries[key]  # re-insertion refreshes eviction order too
        elif len(entries) >= self.capacity:
            del entries[next(iter(entries))]
        entries[key] = (now + self.ttl, value)

    def evict(self, key) -> bool:
        return self._entries.pop(key, None) is not None

    def clear(self) -> None:
        self._entries.clear()


class ClientLocationCache:
    """Per-client SegID → [(owner, version)] cache (newest first).

    Learns whole owner lists from ``loc_lookup``/probe responses and
    single (owner, version) claims from the hints piggybacked on
    ``seg_read``/``seg_write``/``seg_commit`` replies.  Staleness is
    harmless by design (versioning catches mismatches); eviction keeps
    the common case fresh.
    """

    __slots__ = ("_cache",)

    def __init__(self, ttl: float, capacity: int) -> None:
        self._cache = TtlCache(ttl, capacity)

    def lookup(self, segid: int, now: float) -> Optional[List[Tuple[str, int]]]:
        return self._cache.get(segid, now)

    def store(self, segid: int, owners: List[Tuple[str, int]],
              now: float) -> None:
        if owners:
            self._cache.put(segid, [tuple(o) for o in owners], now)

    def learn(self, segid: int, owner: str, version: int, now: float) -> None:
        """Merge one owner's claim, refreshing the entry's TTL."""
        owners = self._cache.get(segid, now) or []
        merged = [(h, v) for h, v in owners if h != owner]
        old = dict(owners).get(owner)
        merged.append((owner, version if old is None else max(version, old)))
        merged.sort(key=lambda p: (-p[1], p[0]))
        self._cache.put(segid, merged, now)

    def learn_hint(self, segid: int, hint, now: float) -> None:
        """Fold in a piggybacked hint: a list of (owner, version) pairs."""
        for owner, version in hint or ():
            self.learn(segid, owner, version, now)

    def evict(self, segid: int) -> bool:
        return self._cache.evict(segid)

    def evict_owner(self, hostid: str) -> int:
        """Membership death / timeout: drop every claim by ``hostid``."""
        touched = 0
        entries = self._cache._entries
        for segid in list(entries):
            expires, owners = entries[segid]
            if any(h == hostid for h, _v in owners):
                touched += 1
                kept = [(h, v) for h, v in owners if h != hostid]
                if kept:
                    entries[segid] = (expires, kept)
                else:
                    del entries[segid]
        return touched

    def clear(self) -> None:
        self._cache.clear()
