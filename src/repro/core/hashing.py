"""Consistent hashing for SegID → home-host mapping (Section 3.4.1).

Unlike Chord's log-N hop lookup, every Sorrento client holds the complete
provider view (from membership) and computes the home host directly.  We
use the classic ring-with-virtual-nodes construction [Karger et al. 27].

The ring is maintained *incrementally and lazily*: membership events
(``add_host``/``remove_host``) only record the intended host set; the
next lookup flushes the difference into the sorted point array.  A small
difference — the steady-state churn case — is spliced host by host with
one linear merge (add) or filter (remove) pass; a mass change (initial
build, a restarted node re-learning the cluster) falls back to one bulk
sort, which beats per-host passes when most of the ring is changing
anyway.  Either way the arrays end up identical to a from-scratch
``sorted((point, host) for ...)`` construction, so lookups are
bit-compatible with the original per-view rebuild.  Vnode hash points
are a pure function of ``(host, vnodes)`` and memoised for the whole
process: churn (a host leaving and rejoining) re-hashes nothing, and
neither does the second ring over the same hosts — every client and
provider keeps its own ring — which also adopts the arrays the last
bulk build sorted instead of sorting them again.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List, Sequence, Tuple

DEFAULT_VNODES = 64

#: (host, vnodes) -> sorted vnode points; shared by every ring, read-only.
_vnode_points: Dict[Tuple[str, int], List[int]] = {}

#: ``((vnodes, hosts), points, hosts array)`` of the latest bulk build.
#: Rings share the arrays freely: they are replaced, never mutated.
_last_bulk: tuple = (None, [], [])


def _point(data: str) -> int:
    return int.from_bytes(hashlib.sha1(data.encode()).digest()[:8], "big")


class HashRing:
    """Maps 128-bit SegIDs to a home host among the live providers.

    One ring, maintained by splicing.  ``stats`` records the maintenance
    work actually done — the churn regression test pins ``bulk_builds``
    to the single initial build and bounds ``point_hashes`` (hashes this
    ring had to compute itself) by hosts-ever-seen × vnodes.
    """

    def __init__(self, vnodes: int = DEFAULT_VNODES):
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        self._points: List[int] = []     # sorted vnode points
        self._hosts: List[str] = []      # parallel owner array
        self._current: set = set()       # intended membership
        self._built: set = set()         # hosts physically in the arrays
        self._dirty = False
        self._last_members: object = None  # identity fast path (see below)
        self.stats = {"splices": 0, "point_hashes": 0, "reconciles": 0,
                      "bulk_builds": 0}

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
        """Mark a host as present (idempotent); spliced at next lookup."""
        if host in self._current:
            return
        self._current.add(host)
        self._dirty = True
        self._last_members = None

    def remove_host(self, host: str) -> None:
        """Mark a host as gone (idempotent); spliced at next lookup."""
        if host not in self._current:
            return
        self._current.discard(host)
        self._dirty = True
        self._last_members = None

    def _splice_in(self, host: str) -> None:
        """One linear merge of the host's sorted vnode points into the
        arrays, tie-breaking equal points by host so the result matches
        a full (point, host) tuple sort."""
        points, hosts = self._points, self._hosts
        out_p: List[int] = []
        out_h: List[str] = []
        i, n = 0, len(points)
        for p in self._host_points(host):
            while i < n and (points[i] < p
                             or (points[i] == p and hosts[i] < host)):
                out_p.append(points[i])
                out_h.append(hosts[i])
                i += 1
            out_p.append(p)
            out_h.append(host)
        out_p.extend(points[i:])
        out_h.extend(hosts[i:])
        self._points, self._hosts = out_p, out_h

    def _splice_out(self, host: str) -> None:
        """One linear filter pass dropping the host's vnode points."""
        keep = [(p, h) for p, h in zip(self._points, self._hosts)
                if h != host]
        self._points = [p for p, _ in keep]
        self._hosts = [h for _, h in keep]

    def _flush(self) -> None:
        """Apply pending membership changes to the point arrays."""
        global _last_bulk
        if not self._dirty:
            return
        to_add = self._current - self._built
        to_remove = self._built - self._current
        churn = (len(to_add) + len(to_remove)) * self.vnodes
        if churn >= max(len(self._points), 1):
            # Most of the ring is changing (initial build, mass
            # reconcile): one sort beats per-host passes — and the next
            # ring over the same hosts takes the sorted arrays as they are.
            key = (self.vnodes, frozenset(self._current))
            if _last_bulk[0] != key:
                pairs = sorted((p, h) for h in self._current
                               for p in self._host_points(h))
                _last_bulk = (key, [p for p, _ in pairs],
                              [h for _, h in pairs])
            _, self._points, self._hosts = _last_bulk
            self.stats["bulk_builds"] += 1
        else:
            for host in sorted(to_remove):
                self._splice_out(host)
            for host in sorted(to_add):
                self._splice_in(host)
        self.stats["splices"] += len(to_add) + len(to_remove)
        self._built = set(self._current)
        self._dirty = False

    def _reconcile(self, members: Sequence[str]) -> None:
        """Diff an explicit member view against the ring and mark the
        difference pending.  When the same (unmutated) view object is
        passed repeatedly — the refresh cycle, preloading — the
        identity check skips even the set compare."""
        if members is self._last_members:
            return
        want = members if isinstance(members, (set, frozenset)) \
            else set(members)
        if want != self._current:
            self.stats["reconciles"] += 1
            for host in self._current - want:
                self.remove_host(host)
            for host in want - self._current:
                self.add_host(host)
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
        """The provider responsible for tracking ``segid``'s owners."""
        self._reconcile(members)
        if not self._current:
            raise ValueError("no live providers")
        self._flush()
        return self._locate(segid)
