"""Adaptive data migration (Section 3.7.1).

Every minute each provider asks: am I significantly imbalanced?  The paper
defines *significant imbalance* as being (a) among the highest 10% of all
providers and (b) above the cluster-wide average plus three standard
deviations, for either EWMA I/O-wait load or storage utilization.

A triggered provider migrates **hot** segments (recent last-access time)
when I/O-bound, with α = 0.8 (favor lightly loaded destinations); or
**cold** segments when space-bound, with α = 0.3 (favor empty
destinations).  Only one active migration process per node.
:class:`Migrator` is the provider's loop that asks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.locality import LOCALITY_THRESHOLD
from repro.core.membership import ProviderInfo
from repro.core.placement import choose_provider
from repro.core.segment import SegmentError, StoredSegment
from repro.network.message import RpcRemoteError, RpcTimeout
from repro.runtime import RPC_DEADLINE

TOP_FRACTION = 0.10          # paper: among the highest 10% of providers
SIGMA_FACTOR = 3.0           # paper: above mean + 3 sigma
ALPHA_IO = 0.8               # paper: hot migration favours light load
ALPHA_SPACE = 0.3            # paper: cold migration favours free space
SEGMENTS_PER_ROUND = 4       # segments moved per decision


@dataclass
class MigrationDecision:
    """What one decision round chose to do."""

    reason: str                       # "io" | "space"
    segments: List[StoredSegment]
    alpha: float


def imbalance_trigger(
    self_value: float,
    all_values: Sequence[float],
    top_fraction: float = TOP_FRACTION,
    sigma_factor: float = SIGMA_FACTOR,
) -> bool:
    """The paper's trigger: top-10% AND above mean + 3 sigma.

    The mean/sigma are computed over the *other* providers.  Including
    the candidate's own value makes the test unsatisfiable: a single
    outlier among n peers lands exactly at mean + 3 sigma of the full
    population (never strictly above), so no lone hot node would ever
    migrate.
    """
    n = len(all_values)
    if n < 2:
        return False
    others = list(all_values)
    others.remove(self_value) if self_value in others else None
    if not others:
        return False
    mean = sum(others) / len(others)
    var = sum((v - mean) ** 2 for v in others) / len(others)
    threshold = mean + sigma_factor * math.sqrt(var)
    rank_cutoff = sorted(all_values, reverse=True)[
        max(0, min(n - 1, int(math.ceil(n * top_fraction)) - 1))
    ]
    return self_value >= rank_cutoff and self_value > threshold


def pick_hot_segments(segments: Sequence[StoredSegment], count: int) -> List[StoredSegment]:
    """Most recently accessed first (highest temperature)."""
    return sorted(segments, key=lambda s: -s.last_access)[:count]


def pick_cold_segments(segments: Sequence[StoredSegment], count: int) -> List[StoredSegment]:
    """Least recently accessed first, largest first among ties (free the
    most space per move)."""
    return sorted(segments, key=lambda s: (s.last_access, -s.size))[:count]


def decide_migration(
    hostid: str,
    members: Dict[str, ProviderInfo],
    candidates: Sequence[StoredSegment],
) -> Optional[MigrationDecision]:
    """One decision round for one provider; None = no migration needed."""
    me = members.get(hostid)
    if me is None or len(members) < 2 or not candidates:
        return None
    io_values = [i.io_wait for i in members.values()]
    space_values = [i.utilization for i in members.values()]
    if imbalance_trigger(me.io_wait, io_values):
        segs = pick_hot_segments(candidates, SEGMENTS_PER_ROUND)
        return MigrationDecision("io", segs, ALPHA_IO)
    if imbalance_trigger(me.utilization, space_values):
        segs = pick_cold_segments(candidates, SEGMENTS_PER_ROUND)
        return MigrationDecision("space", segs, ALPHA_SPACE)
    return None


class Migrator:
    """One provider's migration loop: locality-driven moves first
    (Section 3.7.2), then the decision round of Section 3.7.1."""

    def __init__(self, provider):
        self.provider = provider
        self._locality_recent: Dict[int, float] = {}   # segid -> last move

    def loop(self):
        p = self.provider
        yield p.sim.timeout(p.rng.random() * p.params.migration_interval)
        while True:
            try:
                yield from self._round()
            except (RpcTimeout, RpcRemoteError, SegmentError):
                pass
            yield p.sim.timeout(p.params.migration_interval)

    def _round(self):
        p = self.provider
        members = p.membership.snapshot()
        candidates = [s for s in p.store.committed_segments() if s.size > 0]
        # Locality-driven moves first: they are explicit application policy.
        yield from self._locality_round(members, candidates)
        decision = decide_migration(p.node.hostid, members, [
            s for s in candidates if s.placement != "locality"])
        if decision is None:
            return
        for seg in decision.segments:
            owners = {h for h, _ in p.home.table.lookup(seg.segid)}
            target = choose_provider(p.rng, members, seg.size, decision.alpha,
                                     exclude=owners | {p.node.hostid})
            if target is None:
                continue
            yield from self.migrate_out(seg, target)

    def _locality_round(self, members, candidates):
        p = self.provider
        now = p.sim.now
        for seg in candidates:
            if seg.placement != "locality":
                continue
            if self._locality_recent.get(seg.segid, -1e18) > now - 2 * p.params.migration_interval:
                continue
            dominant = p.history.dominant_source(
                seg.segid, LOCALITY_THRESHOLD, p.params.locality_min_samples)
            if dominant is None or dominant == p.node.hostid:
                continue
            if dominant not in members:
                continue  # traffic source is not a storage provider
            self._locality_recent[seg.segid] = now
            yield from self.migrate_out(seg, dominant)

    def migrate_out(self, seg: StoredSegment, target: str):
        """Replicate to ``target`` then erase locally (Section 3.7.1:
        migration = new replica elsewhere + erase the local copy)."""
        p = self.provider
        yield p.transfer_lock.request()
        try:
            timeout = max(RPC_DEADLINE, seg.size / 1e6)
            try:
                resp = yield from p.rpc.call(target, "seg_replicate", {
                    "segid": seg.segid, "version": seg.version,
                    "from": p.node.hostid}, size=48, timeout=timeout)
            except (RpcTimeout, RpcRemoteError):
                return False
            if resp.get("already"):
                # The target already held the live tip: nothing moved, so
                # keep the local copy (replica count must not shrink).
                return False
            yield from p.erase(seg.segid)
            p.stats["migrations"] += 1
            return True
        finally:
            p.transfer_lock.release()
