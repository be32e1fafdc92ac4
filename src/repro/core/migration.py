"""Adaptive data migration (Section 3.7.1).

Every minute each provider asks: am I significantly imbalanced?  The paper
defines *significant imbalance* as being (a) among the highest 10% of all
providers and (b) above the cluster-wide average plus three standard
deviations, for either EWMA I/O-wait load or storage utilization.

A triggered provider migrates **hot** segments (recent last-access time)
when I/O-bound, with α = 0.8 (favor lightly loaded destinations); or
**cold** segments when space-bound, with α = 0.3 (favor empty
destinations).  Only one active migration process per node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.membership import ProviderInfo
from repro.core.segment import StoredSegment

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
