"""Provider-side segment storage with versions and copy-on-write.

Implements Section 3.5's mechanics: committed versions are immutable;
a *shadow copy* is a sparse new version whose unwritten regions resolve
to the base version ("or its ancestor versions"); a shadow lives until
it commits, aborts or outlives its TTL (a yes vote in 2PC extends it
through the commit window); old versions are consolidated so only the
last few survive.

Content model: every write records an extent.  If the writer supplied
actual bytes they are kept (tests verify end-to-end content); otherwise
the extent is *synthetic* — only timing and sizes matter, which is how
the benchmark workloads run without allocating gigabytes.  A small
file's attached payload (``meta["attached"]`` on an index segment)
follows the same rule: ``None`` beside a non-zero ``attached_len`` is
size-only content, and every wire and disk charge reads the length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from typing import Dict, List, Optional, Tuple

from repro.core.extent import RangeMap
from repro.storage.filesystem import LocalFS

#: A shadow copy that does not commit within this window expires
#: (Section 3.5).
DEFAULT_SHADOW_TTL = 300.0

#: How many committed versions to retain after consolidation ("one or a
#: few latest stable versions"; older ones serve as backups).
KEEP_VERSIONS = 2

#: Marker value for synthetic (size-only) extents.
SYNTHETIC = "<data>"


class SegmentError(Exception):
    """Bad segment operation (missing version, write to committed, ...)."""


@dataclass(slots=True)
class StoredSegment:
    """One version of one segment as held by a provider — and the only
    record of the native-FS file backing it (:class:`LocalFS`)."""

    segid: int
    version: int
    size: int = 0
    committed: bool = False
    base_version: Optional[int] = None   # COW parent (same store)
    extents: RangeMap = field(default_factory=RangeMap)
    replication_degree: int = 1
    alpha: float = 0.5
    placement: str = "load"              # "load" | "locality" | "random"
    last_access: float = 0.0             # LAT: the temperature measure
    expires_at: Optional[float] = None   # shadows only
    meta: Optional[dict] = None          # index segments: layout + attach
    created_by: str = ""                 # client that opened the shadow
    #: The backing file's logical length: ``size`` except while an
    #: ingest's diff is written, or after a ``NoSpace`` rollback.
    file_size: int = 0
    allocated: int = 0                   # its bytes backed by blocks
    seq: int = field(default=-1, init=False)   # holding store's insertion order
    #: The next older version the holding store keeps of this segid.
    older: Optional[StoredSegment] = field(default=None, init=False,
                                           repr=False, compare=False)

    @property
    def fs_name(self) -> str:
        """The backing file's name (the storage engine keys its pages,
        in-flight runs and lost files by it)."""
        return f"{self.segid:032x}.{self.version}"


_by_seq = attrgetter("seq")
_by_start = itemgetter(1)
_first = itemgetter(0)


class SegmentStore:
    """All segment versions on one provider, backed by its local FS.

    ``_segs`` maps a segid to the newest version held, which links to
    the next older one (``older``): that chain of one to three is the
    only container of versions, and every query walks it.
    ``committed_segments`` orders segids by the smallest insertion
    ``seq`` among their committed versions and ``expire_shadows``
    orders versions by their own — refresh batches, migration
    candidates and drop order feed RNG draws and event order, so the
    replay goldens depend on both (never on the dict's own order).
    ``_bytes`` is the store-wide extent-byte counter.  Every mutation
    bumps ``generation``: while it stands still ``committed_segments()``
    names the same segids in the same order (the provider keeps its
    home-host bucketing by it).
    """

    def __init__(self, sim, fs: LocalFS, shadow_ttl: float = DEFAULT_SHADOW_TTL):
        self.sim = sim
        self.fs = fs
        self.shadow_ttl = shadow_ttl
        self._segs: Dict[int, StoredSegment] = {}
        self._next_seq = 0
        self._bytes = 0
        self.generation = 0
        fs.on_wipe = self.wipe

    # -- index maintenance --------------------------------------------
    def _add(self, seg: StoredSegment) -> None:
        """Link a version into its segid's chain (the only write path)."""
        seg.seq = self._next_seq
        self._next_seq += 1
        self.generation += 1
        self._bytes += seg.extents.covered_bytes()
        segs = self._segs
        head = segs.get(seg.segid)
        if head is None or head.version < seg.version:
            # The newest version of its segid here (every create, shadow,
            # new-segment ingest and preloaded segment).
            seg.older = head
            segs[seg.segid] = seg
            return
        while head.older is not None and head.older.version > seg.version:
            head = head.older
        seg.older = head.older
        head.older = seg

    def _remove(self, segid: int, version: int) -> Optional[StoredSegment]:
        """Unlink a version from its chain (the only single removal)."""
        prev, seg = None, self._segs.get(segid)
        while seg is not None and seg.version != version:
            prev, seg = seg, seg.older
        if seg is None:
            return None
        if prev is not None:
            prev.older = seg.older
        elif seg.older is not None:
            self._segs[segid] = seg.older
        else:
            del self._segs[segid]
        seg.older = None
        self.generation += 1
        self._bytes -= seg.extents.covered_bytes()
        return seg

    def _remove_all(self, segid: int) -> List[StoredSegment]:
        """Unlink every version of a segid, newest first."""
        seg = self._segs.pop(segid, None)
        gone = []
        while seg is not None:
            self._bytes -= seg.extents.covered_bytes()
            gone.append(seg)
            seg.older, seg = None, seg.older
        if gone:
            self.generation += 1
        return gone

    # -- inspection ---------------------------------------------------
    def get(self, segid: int, version: int) -> Optional[StoredSegment]:
        """The stored version, or None."""
        seg = self._segs.get(segid)
        while seg is not None and seg.version > version:
            seg = seg.older
        return seg if seg is not None and seg.version == version else None

    def _chain(self, segid: int) -> List[StoredSegment]:
        """Every version held of ``segid``, ascending."""
        seg, vers = self._segs.get(segid), []
        while seg is not None:
            vers.append(seg)
            seg = seg.older
        vers.reverse()
        return vers

    def versions_of(self, segid: int) -> List[int]:
        """All locally held version numbers, ascending."""
        return [seg.version for seg in self._chain(segid)]

    def latest_committed(self, segid: int) -> Optional[StoredSegment]:
        """Newest committed version held here, or None."""
        seg = self._segs.get(segid)
        while seg is not None and not seg.committed:
            seg = seg.older
        return seg

    def committed_segments(self) -> List[StoredSegment]:
        """Latest committed version of every segment held here, in the
        order their segids first held a committed version."""
        rows = []
        for seg in self._segs.values():
            if seg.older is None:               # the common chain of one
                if seg.committed:
                    rows.append((seg.seq, seg))
                continue
            while seg is not None and not seg.committed:
                seg = seg.older
            if seg is not None:
                first, cur = seg.seq, seg.older
                while cur is not None:
                    if cur.committed and cur.seq < first:
                        first = cur.seq
                    cur = cur.older
                rows.append((first, seg))
        rows.sort(key=_first)
        return [seg for _, seg in rows]

    def _versions(self):
        """Every held version, chain by chain."""
        for seg in self._segs.values():
            while seg is not None:
                yield seg
                seg = seg.older

    def __len__(self) -> int:
        return sum(1 for _ in self._versions())

    @property
    def empty(self) -> bool:
        return not self._segs

    def bytes_stored(self) -> int:
        """Total extent bytes across every held version (O(1) counter)."""
        return self._bytes

    def check_index_invariants(self) -> None:
        """Test hook: recompute every fact by scan and assert it — each
        chain's versions, newest committed version and first-commit
        order, the byte counter, and ``fs.used`` as the allocations of
        every held version plus the files known by name."""
        seqs: List[int] = []
        nbytes = allocated = 0
        first: Dict[int, int] = {}
        for segid, seg in self._segs.items():
            chain = []
            while seg is not None:
                assert seg.segid == segid
                assert 0 <= seg.allocated <= seg.file_size
                seg.extents.check_invariants()
                chain.append(seg)
                seg = seg.older
            numbers = [s.version for s in chain]
            assert chain and numbers == sorted(set(numbers), reverse=True)
            assert self.versions_of(segid) == numbers[::-1]
            committed = [s for s in chain if s.committed]
            assert self.latest_committed(segid) is (
                committed[0] if committed else None)
            if committed:
                first[segid] = min(s.seq for s in committed)
            seqs += [s.seq for s in chain]
            nbytes += sum(s.extents.covered_bytes() for s in chain)
            allocated += sum(s.allocated for s in chain)
        assert ([s.segid for s in self.committed_segments()]
                == sorted(first, key=first.get))
        assert len(set(seqs)) == len(seqs) == len(self)
        assert all(0 <= sq < self._next_seq for sq in seqs)
        assert self._bytes == nbytes
        named = sum(f.allocated for f in self.fs.files.values())
        assert self.fs.used == allocated + named, (self.fs.used, allocated)

    # -- creation ---------------------------------------------------------
    def create(self, segid: int, version: int = 1, *,
               replication_degree: int = 1, alpha: float = 0.5,
               placement: str = "load", committed: bool = False,
               creator: str = ""):
        """Create a brand-new (empty) segment version."""
        if self.get(segid, version) is not None:
            raise SegmentError(f"segment {segid:#x} v{version} exists")
        seg = StoredSegment(segid=segid, version=version,
                            replication_degree=replication_degree,
                            alpha=alpha, placement=placement,
                            committed=committed, created_by=creator,
                            last_access=self.sim.now)
        if not committed:
            seg.expires_at = self.sim.now + self.shadow_ttl
        # No I/O: the inode write is folded into the first data write.
        self._add(seg)
        yield from ()
        return seg

    def create_shadow(self, segid: int, base_version: int, creator: str = ""):
        """Shadow-copy the base version: blank segment truncated to its size."""
        base = self.get(segid, base_version)
        if base is None or not base.committed:
            raise SegmentError(
                f"no committed base {segid:#x} v{base_version} to shadow"
            )
        new_version = base_version + 1
        if self.get(segid, new_version) is not None:
            raise SegmentError(f"shadow {segid:#x} v{new_version} already exists")
        seg = StoredSegment(segid=segid, version=new_version, size=base.size,
                            base_version=base_version,
                            replication_degree=base.replication_degree,
                            alpha=base.alpha, placement=base.placement,
                            last_access=self.sim.now,
                            expires_at=self.sim.now + self.shadow_ttl,
                            created_by=creator, file_size=base.size,
                            meta=dict(base.meta) if base.meta else None)
        # A shadow is "an index structure kept in memory" until data
        # arrives (Section 3.5): no device I/O at creation.
        self._add(seg)
        yield from ()
        return seg

    # -- mutation ---------------------------------------------------------
    def write(self, segid: int, version: int, offset: int, length: int,
              data: Optional[bytes] = None, sequential: bool = False,
              in_place: bool = False):
        """Write a range into an uncommitted shadow (or a brand-new v1).
        ``in_place`` mutates a committed segment directly: an application
        that opted out of versioning (Section 3.5), e.g. the parallel
        byte-range sharing primitive, with replication disabled."""
        seg = self._require(segid, version)
        if seg.committed:
            if not in_place:
                raise SegmentError(
                    f"segment {segid:#x} v{version} is committed (immutable)"
                )
            # A committed map may be shared (every planted segment of one
            # size holds the same one): write into a private copy.
            seg.extents = seg.extents.copy()
        if data is not None and len(data) != length:
            raise SegmentError("data/length mismatch")
        if length > 0:
            self._bytes += seg.extents.set_range(
                offset, offset + length,
                (offset, bytes(data)) if data is not None else SYNTHETIC)
        seg.size = max(seg.size, offset + length)
        seg.last_access = self.sim.now
        yield from self.fs.write_to(seg, offset, length, sequential)
        return seg

    def commit(self, segid: int, version: int):
        """Make a shadow immutable; flushes its in-memory index to disk —
        one small I/O when it carries data extents whose COW index must
        persist (index segments persist through the commit's meta write)."""
        seg = self._require(segid, version)
        if seg.committed:
            return seg
        seg.committed = True
        seg.expires_at = None
        self.generation += 1
        if len(seg.extents) > 0 and seg.meta is None:
            yield self.fs.meta_io()
        # Commit is the durability edge: write-back data for this version
        # must be on the media before the commit is acknowledged.
        yield from self.fs.sync(seg)
        return seg

    def drop(self, segid: int, version: int):
        """Discard a version (aborted shadow, or replaced replica)."""
        seg = self._remove(segid, version)
        if seg is not None:
            yield from self.fs.remove(seg)

    def delete_segment(self, segid: int):
        """Remove every version of a segment: they live under one
        directory on the native FS, so one metadata I/O removes them."""
        release = self.fs.release
        if sum([release(seg) for seg in self._remove_all(segid)]):
            yield self.fs.meta_io()

    def discard_lost(self, fs_name: str) -> Optional[Tuple[int, int]]:
        """Drop an *uncommitted* version whose write-back cache pages died
        in a crash (:meth:`repro.storage.engine.StorageEngine.take_lost`);
        every commit/ingest path syncs before acknowledging, so committed
        data is on the media.  Returns the ``(segid, version)`` dropped."""
        stem, _, ver = fs_name.partition(".")
        try:
            segid, version = int(stem, 16), int(ver)
        except ValueError:
            return None
        seg = self.get(segid, version)
        if seg is None or seg.committed:
            return None
        self.fs.release(self._remove(segid, version))
        return segid, version

    def expire_shadows(self) -> List[Tuple[int, int]]:
        """Names of shadows past their TTL, oldest insert first (caller
        drops them)."""
        now = self.sim.now
        expired = [
            seg for seg in self._versions()
            if not seg.committed and seg.expires_at is not None
            and seg.expires_at <= now
        ]
        expired.sort(key=_by_seq)
        return [(seg.segid, seg.version) for seg in expired]

    # -- reading ------------------------------------------------------------
    def resolve(self, segid: int, version: int, offset: int,
                length: int) -> List[Tuple[int, int, int]]:
        """Which stored versions serve [offset, offset+length) of
        ``version``: (version, start, end) pieces; regions written nowhere
        resolve to ``version`` itself (holes read as zeros)."""
        return self._resolve(self._require(segid, version), offset, length)

    def _resolve(self, seg: StoredSegment, offset: int,
                 length: int) -> List[Tuple[int, int, int]]:
        """:meth:`resolve` for a version already in hand."""
        if offset + length > seg.size:
            raise SegmentError(
                f"read past end of {seg.segid:#x} v{seg.version} "
                f"({offset}+{length} > {seg.size})"
            )
        pieces: List[Tuple[int, int, int]] = []
        pending = [(offset, offset + length)]
        cur: Optional[StoredSegment] = seg
        while pending and cur is not None:
            next_pending: List[Tuple[int, int]] = []
            for lo, hi in pending:
                for s, e, val in cur.extents.slices(lo, hi):
                    if val is None:
                        next_pending.append((s, e))
                    else:
                        pieces.append((cur.version, s, e))
            pending = next_pending
            if cur.base_version is None:
                break
            cur = self.get(seg.segid, cur.base_version)
        for lo, hi in pending:  # true holes: zeros from the oldest version
            pieces.append((seg.version, lo, hi))
        pieces.sort(key=_by_start)
        return pieces

    def read(self, segid: int, version: int, offset: int, length: int,
             sequential: bool = False):
        """Charge disk time for a read; returns the resolved bytes, or
        ``None`` when the whole range is synthetic (size-only content; in
        mixed ranges synthetic parts read back as zero bytes)."""
        seg = self._require(segid, version)
        pieces = self._resolve(seg, offset, length)
        seg.last_access = self.sim.now
        yield from self.fs.read_from(seg, offset, length, sequential)
        buf = None
        for cs, ce, data in self._content(segid, pieces):
            if data is not None:
                if buf is None:
                    buf = bytearray(length)
                buf[cs - offset:ce - offset] = data
        return None if buf is None else bytes(buf)

    def _content(self, segid: int, pieces: List[Tuple[int, int, int]]):
        """What resolved ``pieces`` hold, run by run: ``(start, end,
        data)`` with ``data`` the literal bytes, or ``None`` for synthetic
        content.  True holes (written nowhere in the chain) are skipped."""
        for v, s, e in pieces:
            for cs, ce, val in self.get(segid, v).extents.slices(s, e):
                if isinstance(val, tuple):
                    orig, payload = val
                    yield cs, ce, payload[cs - orig:ce - orig]
                elif val is not None:
                    yield cs, ce, None

    # -- replica ingestion & consolidation -----------------------------
    def export_diff(self, segid: int, from_version: int, to_version: int):
        """The changed regions of (from, to]: ``(start, end, bytes or
        None)`` (None = synthetic) covering every byte that differs, or
        ``None`` when an intermediate version is missing here."""
        changed = RangeMap()
        for v in range(from_version + 1, to_version + 1):
            seg = self.get(segid, v)
            if seg is None:
                return None
            for s, e, _ in seg.extents:
                changed.set_range(s, e, True)
        target = self.get(segid, to_version)
        if target is None:
            return None
        regions: List[Tuple[int, int, Optional[bytes]]] = []
        for s, e, _ in changed:
            s, e = min(s, target.size), min(e, target.size)
            if s < e:
                regions.extend(
                    self._content(segid, self._resolve(target, s, e - s)))
        return regions

    def apply_diff(self, segid: int, new_version: int, size: int,
                   regions=None, *, data: Optional[bytes] = None,
                   replication_degree: int = 1, alpha: float = 0.5,
                   placement: str = "load", meta: Optional[dict] = None):
        """Install a new committed version from ``regions``, a diff
        against the local latest (replica lazy sync, Section 3.6), or,
        when ``regions`` is None, from the full copy ``data`` (None:
        size-only) standing on no base version (replication / migration
        arrival)."""
        if self.get(segid, new_version) is not None:
            raise SegmentError(f"already hold {segid:#x} v{new_version}")
        if regions is None:
            old, regions = None, [(0, size, data)] if size > 0 else []
        else:
            old = self.latest_committed(segid)
        seg = StoredSegment(segid=segid, version=new_version, size=size,
                            committed=True,
                            base_version=old.version if old else None,
                            replication_degree=replication_degree,
                            alpha=alpha, placement=placement,
                            meta=dict(meta) if meta else None,
                            last_access=self.sim.now)
        nbytes = 0
        for s, e, data in regions:
            seg.extents.set_range(
                s, e, (s, bytes(data)) if data is not None else SYNTHETIC)
            nbytes += e - s
        self._add(seg)
        try:
            if nbytes > 0:
                yield from self.fs.write_to(seg, 0, nbytes, sequential=True)
                yield from self.fs.sync(seg)  # committed on arrival
            self.fs.resize(seg, size)
        except Exception:
            # Release the file too, or its blocks stay in ``fs.used``.
            yield from self.drop(segid, new_version)
            raise
        return seg

    def consolidate(self, segid: int, keep: int = KEEP_VERSIONS):
        """Merge old committed versions into the newest ``keep`` ones;
        each retained one is materialized (its holes filled from below)
        before anything beneath it is dropped, so COW chains never dangle."""
        committed = [seg for seg in self._chain(segid) if seg.committed]
        if len(committed) <= keep:
            return
        doomed = committed[:-keep]
        if not doomed:
            return
        for seg in committed[-keep:]:
            yield from self._materialize(segid, seg.version)
        for seg in doomed:
            yield from self.drop(segid, seg.version)

    def _materialize(self, segid: int, version: int):
        """Fill a version's holes with content from its ancestors so it
        no longer depends on them."""
        seg = self.get(segid, version)
        if seg.base_version is None:
            return
        for lo, hi in seg.extents.gaps(0, seg.size):
            # True holes are skipped: they still read as zeros.
            for cs, ce, data in self._content(
                    segid, self._resolve(seg, lo, hi - lo)):
                self._bytes += seg.extents.set_range(
                    cs, ce, SYNTHETIC if data is None else (cs, data))
            yield from self.fs.write_to(seg, lo, hi - lo)
        seg.base_version = None

    # -- out-of-band state injection (preload & failure harnesses) --------
    def plant(self, seg: StoredSegment) -> StoredSegment:
        """Install a fully-formed version with zero simulated I/O
        (preloading and test fixtures: the caller built it, extents and
        file sizes included, and adds its ``allocated`` to ``fs.used``)."""
        if self.get(seg.segid, seg.version) is not None:
            raise SegmentError(f"already hold {seg.segid:#x} v{seg.version}")
        self._add(seg)
        return seg

    def lose_segment(self, segid: int) -> None:
        """Silently forget every version of one segment and release its
        files (failure injection: replica loss behind the system's back,
        no FS I/O)."""
        for seg in self._remove_all(segid):
            self.fs.release(seg)

    def wipe(self) -> None:
        """Forget everything (wiped-disk failure injection: what
        :meth:`LocalFS.wipe` calls; ``fs.used`` is the FS's to reset)."""
        self._segs.clear()
        self._bytes = 0
        self.generation += 1

    # -- helpers ----------------------------------------------------------
    def _require(self, segid: int, version: int) -> StoredSegment:
        seg = self._segs.get(segid)   # ``get``, without its frame
        while seg is not None and seg.version > version:
            seg = seg.older
        if seg is not None and seg.version == version:
            return seg
        raise SegmentError(f"no segment {segid:#x} v{version} here")
