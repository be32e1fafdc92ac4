"""File data organization: Linear, Striped, and Hybrid modes (Section 3.2).

A logical file is a linear byte array split into variable-length data
segments; an *index segment* records how the data segments compose the
array (Figure 3).  Segment sizes for Linear/Hybrid follow the paper's
formula: the i-th segment's maximum size in MB is ``min(512, 8**(i // 8))``
— small segments for small files, 512 MB segments for large ones.

Small files (≤ 60 KB) are *attached*: their data rides inside the index
segment so one network transfer serves the whole file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Tuple

MB = 1 << 20

#: Largest data segment (512 MB).
MAX_SEGMENT = 512 * MB

#: Files up to this size live inside the index segment ("to fit in a UDP
#: packet", Section 3.2).
ATTACH_MAX = 60 * 1024

#: Stripe unit for Striped/Hybrid modes.
DEFAULT_STRIPE_UNIT = 64 * 1024

LINEAR = "linear"
STRIPED = "striped"
HYBRID = "hybrid"


def linear_segment_max(i: int) -> int:
    """Max size in bytes of the i-th Linear-mode segment: min{512, 8^⌊i/8⌋} MB."""
    if i < 0:
        raise ValueError("segment index must be >= 0")
    return min(MAX_SEGMENT, (8 ** (i // 8)) * MB)


def hybrid_segment_max(group: int, group_size: int) -> int:
    """Max size of each segment in the i-th Hybrid group: min{512, 8^⌊i·j/8⌋} MB."""
    if group < 0 or group_size < 1:
        raise ValueError("bad hybrid parameters")
    return min(MAX_SEGMENT, (8 ** ((group * group_size) // 8)) * MB)


@dataclass(slots=True)
class SegmentRef:
    """A data segment as recorded in an index segment."""

    segid: int
    version: int = 1
    size: int = 0       # current (actual) size
    max_size: int = 0   # sizing-formula cap


Piece = Tuple[int, int, int]  # (segment index, offset within segment, nbytes)


@dataclass(slots=True)
class Layout:
    """The index segment's view of a file's data organization."""

    mode: str = LINEAR
    segments: List[SegmentRef] = field(default_factory=list)
    size: int = 0
    stripe_unit: int = DEFAULT_STRIPE_UNIT
    stripe_count: int = 0   # Striped: total; Hybrid: per group
    fixed_size: int = 0     # Striped: declared (max) file size

    # -- mapping ---------------------------------------------------------
    def locate(self, offset: int, length: int) -> List[Piece]:
        """Map a byte range of the file onto (segment, offset, len) pieces."""
        if offset < 0 or length < 0:
            raise ValueError("negative offset/length")
        if length == 0:
            return []
        if offset + length > self.size:
            raise ValueError(
                f"range [{offset}, {offset + length}) beyond file size {self.size}"
            )
        if self.mode == LINEAR:
            return self._locate_linear(offset, length)
        if self.mode == STRIPED:
            return self._locate_striped(offset, length, 0, len(self.segments))
        return self._locate_hybrid(offset, length)

    def _locate_linear(self, offset: int, length: int) -> List[Piece]:
        pieces: List[Piece] = []
        pos = 0
        for i, ref in enumerate(self.segments):
            seg_end = pos + ref.size
            if offset < seg_end and offset + length > pos:
                lo = max(offset, pos)
                hi = min(offset + length, seg_end)
                pieces.append((i, lo - pos, hi - lo))
            pos = seg_end
            if pos >= offset + length:
                break
        return pieces

    def _locate_striped(self, offset: int, length: int,
                        seg_base: int, nsegs: int,
                        stripe_base_offset: int = 0) -> List[Piece]:
        """Map within one stripe group of ``nsegs`` segments."""
        unit = self.stripe_unit
        pieces: List[Piece] = []
        pos = offset
        end = offset + length
        while pos < end:
            block = pos // unit
            within = pos % unit
            take = min(unit - within, end - pos)
            seg_idx = seg_base + (block % nsegs)
            seg_off = stripe_base_offset + (block // nsegs) * unit + within
            pieces.append((seg_idx, seg_off, take))
            pos += take
        return _merge_pieces(pieces)

    def _locate_hybrid(self, offset: int, length: int) -> List[Piece]:
        j = self.stripe_count
        pieces: List[Piece] = []
        group_start = 0
        g = 0
        end = offset + length
        while group_start < end and g * j < len(self.segments):
            cap = hybrid_segment_max(g, j) * j
            group_segs = self.segments[g * j:(g + 1) * j]
            group_len = sum(r.size for r in group_segs)
            group_end = group_start + group_len
            if offset < group_end and end > group_start:
                lo = max(offset, group_start) - group_start
                hi = min(end, group_end) - group_start
                pieces.extend(
                    self._locate_striped(lo, hi - lo, g * j, j)
                )
            group_start += min(group_len, cap) if group_len else cap
            if group_len < cap:
                break  # last (partial) group
            g += 1
        return pieces

    # -- copying --------------------------------------------------------
    def clone(self) -> "Layout":
        """A deep-enough copy: fresh SegmentRefs, shared nothing mutable.

        Layouts hold only flat refs, so an explicit rebuild replaces the
        generic ``copy.deepcopy`` on the open/commit hot path.
        """
        return Layout(
            mode=self.mode,
            segments=[SegmentRef(r.segid, r.version, r.size, r.max_size)
                      for r in self.segments],
            size=self.size, stripe_unit=self.stripe_unit,
            stripe_count=self.stripe_count, fixed_size=self.fixed_size,
        )

    # -- growth ---------------------------------------------------------
    def grow_to(self, new_size: int, new_segid: Callable[[], int]) -> List[SegmentRef]:
        """Extend the file to ``new_size``; returns any newly created refs.

        Linear/Hybrid expand the last segment (group) before adding more
        ("Sorrento does not pre-allocate space for a whole segment").
        Striped files cannot grow beyond their declared size.
        """
        if new_size < self.size:
            raise ValueError("grow_to cannot shrink")
        if new_size == self.size:
            return []
        if self.mode == STRIPED:
            if new_size > self.fixed_size:
                raise ValueError(
                    f"striped file fixed at {self.fixed_size} bytes"
                )
            sizes = _striped_sizes(new_size, len(self.segments), self.stripe_unit)
            for ref, sz in zip(self.segments, sizes):
                ref.size = sz
            self.size = new_size
            return []
        created: List[SegmentRef] = []
        if self.mode == LINEAR:
            self.size = new_size
            remaining = new_size
            i = 0
            while remaining > 0:
                cap = linear_segment_max(i)
                if i >= len(self.segments):
                    ref = SegmentRef(segid=new_segid(), max_size=cap)
                    self.segments.append(ref)
                    created.append(ref)
                ref = self.segments[i]
                ref.size = min(cap, remaining)
                remaining -= ref.size
                i += 1
            return created
        # Hybrid: whole groups of stripe_count segments.
        j = self.stripe_count
        self.size = new_size
        remaining = new_size
        g = 0
        while remaining > 0:
            seg_cap = hybrid_segment_max(g, j)
            group_cap = seg_cap * j
            if g * j >= len(self.segments):
                for _ in range(j):
                    ref = SegmentRef(segid=new_segid(), max_size=seg_cap)
                    self.segments.append(ref)
                    created.append(ref)
            take = min(group_cap, remaining)
            sizes = _striped_sizes(take, j, self.stripe_unit)
            for ref, sz in zip(self.segments[g * j:(g + 1) * j], sizes):
                ref.size = sz
            remaining -= take
            g += 1
        return created


def make_layout(mode: str, new_segid: Callable[[], int],
                stripe_count: int = 4,
                stripe_unit: int = DEFAULT_STRIPE_UNIT,
                fixed_size: int = 0) -> Layout:
    """Create an empty layout.

    Striped mode requires the file's (max) size and segment count up
    front (Section 3.2) and allocates all segments immediately.
    """
    if mode == LINEAR:
        return Layout(mode=LINEAR)
    if mode == STRIPED:
        if fixed_size <= 0 or stripe_count <= 0:
            raise ValueError("striped mode needs fixed_size and stripe_count")
        per_seg = -(-fixed_size // stripe_count)
        segs = [
            SegmentRef(segid=new_segid(), max_size=per_seg)
            for _ in range(stripe_count)
        ]
        return Layout(mode=STRIPED, segments=segs, stripe_unit=stripe_unit,
                      stripe_count=stripe_count, fixed_size=fixed_size)
    if mode == HYBRID:
        if stripe_count <= 0:
            raise ValueError("hybrid mode needs stripe_count")
        return Layout(mode=HYBRID, stripe_unit=stripe_unit,
                      stripe_count=stripe_count)
    raise ValueError(f"unknown mode {mode!r}")


def _striped_sizes(size: int, nsegs: int, unit: int) -> List[int]:
    """Exact per-segment byte counts when ``size`` bytes stripe over
    ``nsegs`` segments in ``unit``-byte blocks (block k → segment k % n)."""
    full_blocks, rem = divmod(size, unit)
    base, extra = divmod(full_blocks, nsegs)
    sizes = [base * unit + (unit if k < extra else 0) for k in range(nsegs)]
    if rem:
        sizes[extra] += rem
    return sizes


def _merge_pieces(pieces: List[Piece]) -> List[Piece]:
    """Merge contiguous pieces on the same segment (adjacent stripe rows)."""
    out: List[Piece] = []
    for seg, off, ln in pieces:
        if out and out[-1][0] == seg and out[-1][1] + out[-1][2] == off:
            out[-1] = (seg, out[-1][1], out[-1][2] + ln)
        else:
            out.append((seg, off, ln))
    return out
