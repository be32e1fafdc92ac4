"""Consistent hashing for SegID → home-host mapping (Section 3.4.1).

Unlike Chord's log-N hop lookup, every Sorrento client holds the complete
provider view (from membership) and computes the home host directly.  We
use the classic ring-with-virtual-nodes construction [Karger et al. 27].

Every client and provider keeps a ring, but the ring of a member set is
one shared value: its sorted ``(points, hosts)`` arrays live in a
weak-valued table keyed by ``(vnodes, frozenset(members))`` for as long
as some :class:`HashRing` — a handle — holds them.  Membership events
(``add_host``/``remove_host``) only record the intended host set; the
next lookup adopts that set's arrays, and only a miss derives them: from
the arrays the ring holds, one merge (add) or filter (remove) pass per
differing host into fresh lists when few differ, else one bulk sort.  So
a view change is derived once for the cluster, not once per node, and
the arrays equal a from-scratch ``sorted((point, host) for ...)``.
Vnode points are a pure function of ``(host, vnodes)``, memoised for
the process: churn re-hashes nothing.
"""

from __future__ import annotations

import bisect
import hashlib
import weakref
from typing import Dict, FrozenSet, List, Sequence, Tuple

DEFAULT_VNODES = 64

#: (host, vnodes) -> sorted vnode points; shared by every ring, read-only.
_vnode_points: Dict[Tuple[str, int], List[int]] = {}

#: How this process derived the table's entries (adopting one is free).
derived = {"sorts": 0, "splices": 0}


class _Arrays:
    """One member set's sorted ring; never written once registered."""
    __slots__ = ("members", "points", "hosts", "__weakref__")

    def __init__(self, members: FrozenSet[str], points, hosts):
        self.members, self.points, self.hosts = members, points, hosts


#: (vnodes, members) -> the arrays some ring holds; gone with the last one.
_table = weakref.WeakValueDictionary()

_EMPTY = _Arrays(frozenset(), [], [])


def _point(data: str) -> int:
    return int.from_bytes(hashlib.sha1(data.encode()).digest()[:8], "big")


def _splice_in(points: List[int], hosts: List[str], host: str,
               host_points: List[int]) -> Tuple[List[int], List[str]]:
    """One linear merge of a host's sorted vnode points into fresh
    arrays, tie-breaking equal points by host so the result matches a
    full (point, host) tuple sort."""
    out_p: List[int] = []
    out_h: List[str] = []
    i, n = 0, len(points)
    for p in host_points:
        while i < n and (points[i] < p
                         or (points[i] == p and hosts[i] < host)):
            out_p.append(points[i])
            out_h.append(hosts[i])
            i += 1
        out_p.append(p)
        out_h.append(host)
    out_p.extend(points[i:])
    out_h.extend(hosts[i:])
    return out_p, out_h


def _splice_out(points: List[int], hosts: List[str],
                host: str) -> Tuple[List[int], List[str]]:
    """One linear filter pass dropping a host's vnode points."""
    keep = [(p, h) for p, h in zip(points, hosts) if h != host]
    return [p for p, _ in keep], [h for _, h in keep]


class HashRing:
    """Maps 128-bit SegIDs to a home host among the live providers.

    A handle on the shared arrays of its member set.  ``stats`` records
    this ring's own work: ``bulk_builds`` and ``splices`` it derived,
    ``adoptions`` of sets another ring derived, ``point_hashes``.
    """

    def __init__(self, vnodes: int = DEFAULT_VNODES):
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        self._held = _EMPTY              # the shared arrays in use
        self._points, self._hosts = _EMPTY.points, _EMPTY.hosts  # _locate's
        self._current: set = set()       # intended membership
        self._dirty = False
        self._last_members: object = None  # home_host's identity fast path
        self.stats = {"splices": 0, "adoptions": 0, "point_hashes": 0,
                      "reconciles": 0, "bulk_builds": 0}

    # ------------------------------------------------------- maintenance
    def _host_points(self, host: str) -> List[int]:
        key = (host, self.vnodes)
        pts = _vnode_points.get(key)
        if pts is None:
            pts = sorted(_point(f"{host}#{i}") for i in range(self.vnodes))
            _vnode_points[key] = pts
            self.stats["point_hashes"] += self.vnodes
        return pts

    def add_host(self, host: str) -> None:
        """Mark a host as present (idempotent); applied at next lookup."""
        if host not in self._current:
            self._current.add(host)
            self._dirty, self._last_members = True, None

    def remove_host(self, host: str) -> None:
        """Mark a host as gone (idempotent); applied at next lookup."""
        if host in self._current:
            self._current.discard(host)
            self._dirty, self._last_members = True, None

    def _flush(self) -> None:
        """Point the ring at its set's shared arrays; on a miss, derive
        them from the ones it holds and register them."""
        self._dirty = False
        held, members = self._held, frozenset(self._current)
        if members == held.members:
            return
        key = (self.vnodes, members)
        arrays = _table.get(key)
        if arrays is not None:
            self.stats["adoptions"] += 1
        else:
            to_add = members - held.members
            to_remove = held.members - members
            churn = len(to_add) + len(to_remove)
            if churn * self.vnodes >= max(len(held.points), 1):
                # Most of the ring is changing: one sort beats splicing.
                pairs = sorted((p, h) for h in members
                               for p in self._host_points(h))
                points, hosts = [p for p, _ in pairs], [h for _, h in pairs]
                derived["sorts"] += 1
                self.stats["bulk_builds"] += 1
            else:
                points, hosts = held.points, held.hosts
                for host in sorted(to_remove):
                    points, hosts = _splice_out(points, hosts, host)
                for host in sorted(to_add):
                    points, hosts = _splice_in(points, hosts, host,
                                               self._host_points(host))
                derived["splices"] += churn
                self.stats["splices"] += churn
            arrays = _table[key] = _Arrays(members, points, hosts)
        self._held = arrays
        self._points, self._hosts = arrays.points, arrays.hosts

    def _reconcile(self, members: Sequence[str]) -> None:
        """Mark the ring's difference from an explicit view pending."""
        want = set(members)
        if want != self._current:
            self.stats["reconciles"] += 1
            self._current, self._dirty = want, True
        self._last_members = members

    # ------------------------------------------------------------ lookup
    def _locate(self, segid: int) -> str:
        key = int.from_bytes(
            hashlib.sha1(segid.to_bytes(16, "big")).digest()[:8], "big"
        )
        points = self._points
        i = bisect.bisect_right(points, key)
        if i == len(points):
            i = 0
        return self._hosts[i]

    def home_host(self, segid: int, members: Sequence[str]) -> str:
        """The provider responsible for tracking ``segid``'s owners.

        The same (unmutated) view object passed again — the refresh
        cycle, preloading — skips even the set compare, and an unchanged
        view costs no call but ``_locate``."""
        if members is not self._last_members:
            self._reconcile(members)
        if not self._current:
            raise ValueError("no live providers")
        if self._dirty:
            self._flush()
        return self._locate(segid)
