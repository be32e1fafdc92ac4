"""Locality-driven data placement (Section 3.7.2).

For applications whose processes access disjoint data partitions, Sorrento
co-locates a segment with the node generating most of its traffic: "A
segment will migrate to a remote provider if a significant percentage of
the traffic it receives is from that provider."  The threshold must exceed
50% to avoid instability.  Memory is bounded by keeping "the latest one
thousand accesses for the most recently accessed one thousand segments."
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

LOCALITY_THRESHOLD = 0.6     # dominant-source share that moves a segment;
#                              must be > 0.5 (paper) to avoid instability


class AccessHistory:
    """Bounded per-segment access log with LRU eviction across segments.

    A segment's log is a plain list holding exactly its latest
    ``max_accesses`` entries, oldest first: most logged segments see a
    handful of accesses, and a list costs what it holds.
    """

    def __init__(self, max_segments: int = 1000, max_accesses: int = 1000):
        self.max_segments = max_segments
        self.max_accesses = max_accesses
        self._hist: "OrderedDict[int, List[Tuple[str, int]]]" = OrderedDict()

    def record(self, segid: int, src: str, nbytes: int) -> None:
        log = self._hist.get(segid)
        if log is None:
            if len(self._hist) >= self.max_segments:
                self._hist.popitem(last=False)  # evict least recently used
            log = self._hist[segid] = [(src, nbytes)]
        else:
            self._hist.move_to_end(segid)
            log.append((src, nbytes))
        if len(log) > self.max_accesses:
            del log[0]

    def traffic_by_source(self, segid: int) -> dict:
        log = self._hist.get(segid)
        if not log:
            return {}
        out: dict = {}
        for src, nbytes in log:
            out[src] = out.get(src, 0) + nbytes
        return out

    def samples(self, segid: int) -> int:
        log = self._hist.get(segid)
        return len(log) if log else 0

    def dominant_source(self, segid: int, threshold: float,
                        min_samples: int = 1) -> Optional[str]:
        """The remote host generating > threshold of the traffic, if any."""
        if threshold <= 0.5:
            raise ValueError("locality threshold must be > 0.5 (paper)")
        if self.samples(segid) < min_samples:
            return None
        traffic = self.traffic_by_source(segid)
        total = sum(traffic.values())
        if total <= 0:
            return None
        host, top = max(traffic.items(), key=lambda kv: kv[1])
        if top / total > threshold:
            return host
        return None

    def forget(self, segid: int) -> None:
        self._hist.pop(segid, None)

    def __len__(self) -> int:
        return len(self._hist)
