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

This module is the pure data structures (plain dicts, no secondary
index: see :class:`LocationTable`); the surrounding protocols live in
:mod:`repro.core.provider` and :mod:`repro.core.client`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

PURGE_AGE_FACTOR = 2.5       # a home purges records older than this
#                              many refresh cycles
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
