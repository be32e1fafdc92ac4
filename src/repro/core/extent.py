"""Byte-range (extent) maps.

Sorrento's copy-on-write uses "an index structure to maintain the mapping
from region ranges to physical segments where the valid data for the
shadow copy can be located" (Section 3.5).  :class:`RangeMap` is that
structure: a sorted list of disjoint half-open intervals carrying an
arbitrary value (a segment version reference, or literal bytes in
content-verifying tests).
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator, List, Tuple

Span = Tuple[int, int, Any]  # (start, end, value); end exclusive

_INF = float("inf")


class RangeMap:
    """Disjoint half-open byte intervals → values.

    ``set_range`` overwrites any overlapped portion of existing intervals;
    adjacent intervals with equal values coalesce.  Lookups bisect the
    span list itself with an ``(offset, inf)`` probe: a span's end is
    never infinite, so the comparison never reaches its value.  Every
    mutation replaces the span list rather than editing it, so a
    :meth:`copy` may share it.
    """

    __slots__ = ("_spans", "_covered")

    def __init__(self) -> None:
        self._spans: List[Span] = []
        self._covered = 0  # maintained by set_range/clear_range

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self._spans)

    @property
    def end(self) -> int:
        """One past the last mapped byte (0 if empty)."""
        return self._spans[-1][1] if self._spans else 0

    def covered_bytes(self) -> int:
        """Total mapped bytes — O(1), the counter is kept on mutation
        (``SegmentStore.bytes_stored`` sums these per-version counters
        into its own store-wide counter)."""
        return self._covered

    def copy(self) -> "RangeMap":
        """A map that mutates independently of this one (O(1))."""
        other = RangeMap.__new__(RangeMap)
        other._spans, other._covered = self._spans, self._covered
        return other

    # -- mutation ---------------------------------------------------------
    def set_range(self, start: int, end: int, value: Any) -> int:
        """Map [start, end) to ``value``, splitting/overwriting overlaps.

        Returns the number of *newly covered* bytes (the coverage delta —
        0 when the whole range was already mapped)."""
        if start >= end:
            raise ValueError(f"empty range [{start}, {end})")
        if not self._spans:   # first write into a new segment
            self._spans = [(start, end, value)]
            self._covered = end - start
            return self._covered
        new_spans: List[Span] = []
        overlapped = 0
        for s, e, v in self._spans:
            if e <= start or s >= end:
                new_spans.append((s, e, v))
                continue
            overlapped += min(e, end) - max(s, start)
            if s < start:
                new_spans.append((s, start, v))
            if e > end:
                new_spans.append((end, e, v))
        new_spans.append((start, end, value))
        new_spans.sort(key=lambda sp: sp[0])
        self._spans = _coalesce(new_spans)
        added = (end - start) - overlapped
        self._covered += added
        return added

    def clear_range(self, start: int, end: int) -> int:
        """Unmap [start, end); returns the number of bytes uncovered."""
        if start >= end:
            return 0
        out: List[Span] = []
        removed = 0
        for s, e, v in self._spans:
            if e <= start or s >= end:
                out.append((s, e, v))
                continue
            removed += min(e, end) - max(s, start)
            if s < start:
                out.append((s, start, v))
            if e > end:
                out.append((end, e, v))
        self._spans = out
        self._covered -= removed
        return removed

    # -- queries ------------------------------------------------------------
    def slices(self, start: int, end: int) -> List[Span]:
        """Cover [start, end) with spans; unmapped gaps have value None."""
        if start >= end:
            return []
        out: List[Span] = []
        pos = start
        i = max(0, bisect.bisect_right(self._spans, (start, _INF)) - 1)
        for s, e, v in self._spans[i:]:
            if e <= pos:
                continue
            if s >= end:
                break
            if s > pos:
                out.append((pos, s, None))
                pos = s
            take_end = min(e, end)
            out.append((pos, take_end, v))
            pos = take_end
            if pos >= end:
                break
        if pos < end:
            out.append((pos, end, None))
        return out

    def gaps(self, start: int, end: int) -> List[Tuple[int, int]]:
        """Unmapped sub-ranges of [start, end)."""
        return [(s, e) for s, e, v in self.slices(start, end) if v is None]

    def check_invariants(self) -> None:
        prev_end = None
        prev_val = object()
        for s, e, v in self._spans:
            assert s < e, "empty span"
            if prev_end is not None:
                assert s >= prev_end, "overlapping spans"
                if s == prev_end:
                    assert v != prev_val, "uncoalesced adjacent equal spans"
            prev_end, prev_val = e, v
        assert self._covered == sum(e - s for s, e, _ in self._spans), \
            "covered-bytes counter drifted from the span list"


def _coalesce(spans: List[Span]) -> List[Span]:
    out: List[Span] = []
    for s, e, v in spans:
        if out and out[-1][1] == s and out[-1][2] == v:
            out[-1] = (out[-1][0], e, v)
        else:
            out.append((s, e, v))
    return out
