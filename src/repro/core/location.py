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

This module is the pure data structures; the surrounding protocols live
in :mod:`repro.core.provider` and :mod:`repro.core.client`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass
class OwnerRecord:
    """One owner's claim on a segment."""

    version: int
    degree: int          # desired replication degree for the segment
    size: int
    last_refresh: float


class LocationTable:
    """SegID → {owner → OwnerRecord} with age-based garbage collection.

    Two auxiliary indices keep the table's cluster-event paths
    proportional to the work at hand rather than the table size:

    * ``_by_owner`` (owner → segid set) makes ``drop_owner`` — fired on
      every membership death, on every provider — O(segments that host
      actually owned), not a sweep of every entry homed here.
    * a refresh wheel (records bucketed by ``int(last_refresh /
      _WHEEL_TICK)``) makes ``purge`` O(stale records found), not a
      sweep: refreshed records migrate to young buckets on update, so
      old buckets hold only garbage.
    """

    #: Refresh-wheel bucket width (sim-seconds).  Purge ages are multiples
    #: of the refresh cycle (seconds to minutes), so 1 s buckets keep the
    #: boundary-bucket exact check cheap while bounding bucket counts.
    _WHEEL_TICK = 1.0

    def __init__(self) -> None:
        self._entries: Dict[int, Dict[str, OwnerRecord]] = {}
        self._first_seen: Dict[int, float] = {}
        self._by_owner: Dict[str, set] = {}
        self._ins_seq: Dict[int, int] = {}   # segid → insertion sequence
        self._next_seq = 0
        self._rwheel: Dict[int, set] = {}    # tick → {(segid, owner)}
        self._rtick: Dict[Tuple[int, str], int] = {}
        self._rmin = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, segid: int) -> bool:
        return segid in self._entries

    def segids(self) -> List[int]:
        return list(self._entries)

    # -- index plumbing -----------------------------------------------------
    def _rebucket(self, segid: int, owner: str, when: float) -> None:
        key = (segid, owner)
        tick = int(when / self._WHEEL_TICK)
        old = self._rtick.get(key)
        if old == tick:
            return
        if old is not None:
            bucket = self._rwheel.get(old)
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del self._rwheel[old]
        self._rwheel.setdefault(tick, set()).add(key)
        self._rtick[key] = tick

    def _unindex(self, segid: int, owner: str) -> None:
        segids = self._by_owner.get(owner)
        if segids is not None:
            segids.discard(segid)
            if not segids:
                del self._by_owner[owner]
        key = (segid, owner)
        old = self._rtick.pop(key, None)
        if old is not None:
            bucket = self._rwheel.get(old)
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del self._rwheel[old]

    def _drop_segid(self, segid: int) -> None:
        del self._entries[segid]
        self._first_seen.pop(segid, None)
        self._ins_seq.pop(segid, None)

    # -- updates ------------------------------------------------------------
    def update(self, segid: int, owner: str, version: int, degree: int,
               size: int, now: float) -> None:
        """Insert or refresh one owner's record."""
        owners = self._entries.get(segid)
        if owners is None:
            owners = self._entries[segid] = {}
            self._first_seen[segid] = now
            self._ins_seq[segid] = self._next_seq
            self._next_seq += 1
        rec = owners.get(owner)
        if rec is None:
            self._by_owner.setdefault(owner, set()).add(segid)
        if rec is None or version >= rec.version:
            owners[owner] = OwnerRecord(version, degree, size, now)
        else:
            rec.last_refresh = now  # stale announce still proves liveness
        self._rebucket(segid, owner, now)

    def plant(self, segid: int, owner: str, version: int, degree: int,
              size: int, now: float) -> None:
        """:meth:`update` for a ``(segid, owner)`` pair this map has
        never seen — the bulk-preload fast path.  Skips the staleness
        comparison and the rebucket old-tick probe; the resulting state
        is identical to ``update()`` of a fresh record."""
        owners = self._entries.get(segid)
        if owners is None:
            owners = self._entries[segid] = {}
            self._first_seen[segid] = now
            self._ins_seq[segid] = self._next_seq
            self._next_seq += 1
        owners[owner] = OwnerRecord(version, degree, size, now)
        owned = self._by_owner.get(owner)
        if owned is None:
            owned = self._by_owner[owner] = set()
        owned.add(segid)
        key = (segid, owner)
        tick = int(now / self._WHEEL_TICK)
        bucket = self._rwheel.get(tick)
        if bucket is None:
            bucket = self._rwheel[tick] = set()
        bucket.add(key)
        self._rtick[key] = tick

    def remove(self, segid: int, owner: str) -> None:
        """Drop one owner's record (segment deleted or migrated away)."""
        owners = self._entries.get(segid)
        if owners is None:
            return
        if owners.pop(owner, None) is not None:
            self._unindex(segid, owner)
        if not owners:
            self._drop_segid(segid)

    def drop_owner(self, hostid: str) -> List[int]:
        """Node departure: purge every record owned by ``hostid``.

        Returns the SegIDs affected (the provider re-checks their
        replication degree afterwards), in table-insertion order — the
        order the pre-index full scan produced.
        """
        segids = self._by_owner.pop(hostid, None)
        if not segids:
            return []
        affected = sorted(segids, key=self._ins_seq.__getitem__)
        for segid in affected:
            owners = self._entries[segid]
            del owners[hostid]
            key = (segid, hostid)
            old = self._rtick.pop(key)
            bucket = self._rwheel.get(old)
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del self._rwheel[old]
            if not owners:
                self._drop_segid(segid)
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

    def under_replicated(self, segid: int) -> int:
        """How many replicas short of the desired degree (0 if satisfied)."""
        owners = self._entries.get(segid, {})
        if not owners:
            return 0
        latest, current, _stale = self.discrepancies(segid)
        degree = max(rec.degree for rec in owners.values())
        return max(0, degree - len(owners))

    # -- garbage collection -------------------------------------------------
    def purge(self, now: float, max_age: float) -> int:
        """Remove records not refreshed within ``max_age``; returns count.

        "Since valid entries will be refreshed periodically while garbage
        entries will never be refreshed, the latter can be identified
        based on their ages and eventually be purged."
        """
        cutoff = now - max_age
        limit = int(cutoff / self._WHEEL_TICK)
        if limit < self._rmin:
            return 0
        purged = 0
        for t in range(self._rmin, limit + 1):
            bucket = self._rwheel.get(t)
            if not bucket:
                self._rwheel.pop(t, None)
                continue
            # Only the boundary bucket can mix fresh and stale records;
            # the exact compare keeps float-edge behaviour identical to
            # the old full scan.
            stale = [(s, h) for (s, h) in bucket
                     if self._entries[s][h].last_refresh < cutoff]
            for segid, host in stale:
                owners = self._entries[segid]
                del owners[host]
                self._unindex(segid, host)
                purged += 1
                if not owners:
                    self._drop_segid(segid)
            if not self._rwheel.get(t):
                self._rwheel.pop(t, None)
        self._rmin = limit if limit in self._rwheel else limit + 1
        return purged


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

    def __len__(self) -> int:
        return len(self._entries)

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

    def __len__(self) -> int:
        return len(self._cache)

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
