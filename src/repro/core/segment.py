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
    """One version of one segment as held by a provider."""

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
    seq: int = field(default=-1, init=False)   # holding store's insertion order
    #: The native-FS file name backing this version — formatted once; the
    #: same string object keys ``LocalFS.files``.
    fs_name: str = field(init=False)

    def __post_init__(self) -> None:
        self.fs_name = f"{self.segid:032x}.{self.version}"


class _Family:
    """Every version of one segid on one provider."""

    __slots__ = ("versions", "latest", "commit_seq")

    def __init__(self, first: StoredSegment) -> None:
        committed = first.committed
        self.versions = [first]                        # ascending version
        self.latest = first if committed else None     # newest committed
        #: Smallest insertion ``seq`` among the committed versions.
        self.commit_seq = first.seq if committed else None


_by_seq = attrgetter("seq")
_by_start = itemgetter(1)
_by_first_commit = attrgetter("commit_seq")


class SegmentStore:
    """All segment versions on one provider, backed by its local FS.

    ``_segs`` maps a segid to its :class:`_Family` and is the only
    container of versions.  A family carries what the hot queries need
    so none of them scans the store: its versions in ascending order
    (``get`` / ``versions_of`` walk these one to three), the newest
    committed one (``latest_committed``) and the smallest insertion
    ``seq`` among its committed versions.  ``committed_segments`` orders
    families by that, and ``expire_shadows`` orders versions by their own
    ``seq`` — refresh batches, migration candidates and drop order feed
    RNG draws and event order, so the replay goldens depend on both.
    Nothing relies on the dict's own order: a family that empties and
    returns re-enters at the end.  ``_bytes`` is the store-wide
    extent-byte counter, adjusted by the delta of every extent mutation.

    All mutations go through ``_add``/``_remove``/``_note_committed``
    (and ``wipe``), and each bumps ``generation``: while that stands
    still ``committed_segments()`` names the same segids in the same
    order (the provider keeps its home-host bucketing by it).
    ``check_index_invariants`` recomputes every family's facts by scan
    and is asserted against them in the property tests.
    """

    def __init__(self, sim, fs: LocalFS, shadow_ttl: float = DEFAULT_SHADOW_TTL):
        self.sim = sim
        self.fs = fs
        self.shadow_ttl = shadow_ttl
        self._segs: Dict[int, _Family] = {}
        self._next_seq = 0
        self._bytes = 0
        self.generation = 0

    # -- index maintenance --------------------------------------------
    def _add(self, seg: StoredSegment) -> None:
        """Insert a version into its family (the only write path to _segs)."""
        seg.seq = self._next_seq
        self._next_seq += 1
        self.generation += 1
        self._bytes += seg.extents.covered_bytes()
        fam = self._segs.get(seg.segid)
        if fam is None:
            # First version of its segid here (every create, new-segment
            # ingest and preloaded segment): nothing to order against.
            self._segs[seg.segid] = _Family(seg)
            return
        vers = fam.versions
        i = len(vers)
        while i and vers[i - 1].version > seg.version:
            i -= 1
        vers.insert(i, seg)
        if seg.committed:
            self._note_committed(seg)

    def _note_committed(self, seg: StoredSegment) -> None:
        """Fold a committed version into its family's facts (at insert,
        at commit time, or when ``_remove`` recomputes them)."""
        self.generation += 1
        fam = self._segs[seg.segid]
        if fam.latest is None or seg.version > fam.latest.version:
            fam.latest = seg
        if fam.commit_seq is None or seg.seq < fam.commit_seq:
            fam.commit_seq = seg.seq

    def _remove(self, segid: int, version: int) -> Optional[StoredSegment]:
        """Drop a version from its family (the only removal path); the
        family goes with its last version."""
        fam = self._segs.get(segid)
        vers = fam.versions if fam is not None else ()
        for i, seg in enumerate(vers):
            if seg.version == version:
                break
        else:
            return None
        del vers[i]
        self.generation += 1
        self._bytes -= seg.extents.covered_bytes()
        if not vers:
            del self._segs[segid]
        elif seg.committed:
            fam.latest = fam.commit_seq = None
            for other in vers:
                if other.committed:
                    self._note_committed(other)
        return seg

    # -- inspection ---------------------------------------------------
    def get(self, segid: int, version: int) -> Optional[StoredSegment]:
        """The stored version, or None."""
        fam = self._segs.get(segid)
        if fam is not None:
            for seg in fam.versions:
                if seg.version == version:
                    return seg
        return None

    def versions_of(self, segid: int) -> List[int]:
        """All locally held version numbers, ascending."""
        fam = self._segs.get(segid)
        return [seg.version for seg in fam.versions] if fam is not None else []

    def latest_committed(self, segid: int) -> Optional[StoredSegment]:
        """Newest committed version held here, or None."""
        fam = self._segs.get(segid)
        return fam.latest if fam is not None else None

    def committed_segments(self) -> List[StoredSegment]:
        """Latest committed version of every segment held here, in the
        order their families first held a committed version."""
        fams = [f for f in self._segs.values() if f.latest is not None]
        fams.sort(key=_by_first_commit)
        return [f.latest for f in fams]

    def __len__(self) -> int:
        return sum(len(fam.versions) for fam in self._segs.values())

    def bytes_stored(self) -> int:
        """Total extent bytes across every held version (O(1) counter)."""
        return self._bytes

    def check_index_invariants(self) -> None:
        """Recompute every family's facts by scan and assert equality.

        Test hook: the equivalence/property tests call this after random
        mutation sequences; production code never does.
        """
        seqs: List[int] = []
        nbytes = 0
        for segid, fam in self._segs.items():
            vers = fam.versions
            assert vers, "an emptied family was kept"
            numbers = [seg.version for seg in vers]
            assert numbers == sorted(set(numbers))
            committed = [seg for seg in vers if seg.committed]
            assert fam.latest is (committed[-1] if committed else None)
            assert fam.commit_seq == min((seg.seq for seg in committed),
                                         default=None)
            for seg in vers:
                assert seg.segid == segid
                assert seg.fs_name == f"{segid:032x}.{seg.version}"
                seg.extents.check_invariants()
                seqs.append(seg.seq)
                nbytes += seg.extents.covered_bytes()
        assert len(set(seqs)) == len(seqs)
        assert all(0 <= sq < self._next_seq for sq in seqs)
        assert self._bytes == nbytes

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
        # Reserve the version before yielding so concurrent creators see it.
        self._add(seg)
        try:
            # Lazy: the inode write is folded into the first data write.
            yield from self.fs.create(seg.fs_name, charge=False)
        except Exception:
            self._remove(segid, version)
            raise
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
                            created_by=creator,
                            meta=dict(base.meta) if base.meta else None)
        self._add(seg)
        try:
            # A shadow is "an index structure kept in memory" until data
            # arrives (Section 3.5): no device I/O at creation.
            yield from self.fs.create(seg.fs_name, charge=False)
            self.fs.set_size(seg.fs_name, base.size)
        except Exception:
            self._remove(segid, new_version)
            raise
        return seg

    # -- mutation ---------------------------------------------------------
    def write(self, segid: int, version: int, offset: int, length: int,
              data: Optional[bytes] = None, sequential: bool = False,
              in_place: bool = False):
        """Write a range into an uncommitted shadow (or a brand-new v1).

        ``in_place`` is the versioning-disabled write: it mutates a
        committed segment directly.  Used when an application opts out
        of versioning (Section 3.5), e.g. for the parallel byte-range
        sharing primitive; replication is the caller's problem (it is
        disabled in that mode).
        """
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
        yield from self.fs.write(seg.fs_name, offset, length, sequential)
        return seg

    def commit(self, segid: int, version: int):
        """Make a shadow immutable; flushes its in-memory index to disk.

        The flush costs one small I/O only when the shadow carries data
        extents whose COW index must persist; index segments persist
        their metadata through the commit-time meta write instead.
        """
        seg = self._require(segid, version)
        if seg.committed:
            return seg
        seg.committed = True
        seg.expires_at = None
        self._note_committed(seg)
        if len(seg.extents) > 0 and seg.meta is None:
            yield self.fs.meta_io()
        # Commit is the durability edge: write-back data for this version
        # must be on the media before the commit is acknowledged.
        yield from self.fs.sync(seg.fs_name)
        return seg

    def drop(self, segid: int, version: int):
        """Discard a version (aborted shadow, or replaced replica)."""
        seg = self._remove(segid, version)
        if seg is None:
            return
        if self.fs.exists(seg.fs_name):
            yield from self.fs.unlink(seg.fs_name)

    def delete_segment(self, segid: int):
        """Remove every version of a segment.

        All versions live under one directory on the native FS, so the
        family goes in a single positioned metadata I/O.
        """
        any_allocated = False
        for v in self.versions_of(segid):
            seg = self._remove(segid, v)
            any_allocated = bool(self.fs.forget(seg.fs_name)) or any_allocated
        if any_allocated:
            yield self.fs.meta_io()

    def discard_lost(self, fs_name: str) -> Optional[Tuple[int, int]]:
        """Drop an *uncommitted* version whose write-back cache pages died
        in a crash (see :meth:`repro.storage.engine.StorageEngine.take_lost`).

        Committed versions are never dropped: every commit/ingest path
        syncs the backing file before acknowledging, so a committed
        version's data was on the media by definition.  Returns the
        ``(segid, version)`` dropped, or ``None``.
        """
        stem, _, ver = fs_name.partition(".")
        try:
            segid, version = int(stem, 16), int(ver)
        except ValueError:
            return None
        seg = self.get(segid, version)
        if seg is None or seg.committed:
            return None
        self._remove(segid, version)
        self.fs.forget(fs_name)
        return segid, version

    def expire_shadows(self) -> List[Tuple[int, int]]:
        """Names of shadows past their TTL, oldest insert first (caller
        drops them)."""
        now = self.sim.now
        expired = [
            seg for fam in self._segs.values() for seg in fam.versions
            if not seg.committed and seg.expires_at is not None
            and seg.expires_at <= now
        ]
        expired.sort(key=_by_seq)
        return [(seg.segid, seg.version) for seg in expired]

    # -- reading ------------------------------------------------------------
    def resolve(self, segid: int, version: int, offset: int,
                length: int) -> List[Tuple[int, int, int]]:
        """Which stored versions serve [offset, offset+length) of ``version``.

        Returns (version, start, end) pieces; unwritten-anywhere regions
        resolve to the oldest version in the chain (holes read as zeros).
        """
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
        """Charge disk time for a read; returns the resolved bytes.

        Returns ``None`` when the whole range is synthetic (size-only
        content) — materializing gigabytes of zeros would defeat the
        point of synthetic extents.  In mixed ranges, synthetic parts
        read back as zero bytes.
        """
        seg = self._require(segid, version)
        pieces = self._resolve(seg, offset, length)
        seg.last_access = self.sim.now
        yield from self.fs.read(seg.fs_name, offset, length, sequential)
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
        """The changed regions of (from, to] with their content.

        Returns a list of ``(start, end, bytes_or_None)`` covering every
        byte that differs between the two versions (None = synthetic), or
        ``None`` when the local chain cannot produce the diff (missing
        intermediate version) and a full transfer is needed.
        """
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
            yield from self.fs.create(seg.fs_name, charge=False)
            if nbytes > 0:
                yield from self.fs.write(seg.fs_name, 0, nbytes,
                                         sequential=True)
                yield from self.fs.sync(seg.fs_name)  # committed on arrival
            self.fs.set_size(seg.fs_name, size)
        except Exception:
            # Unlink the native file too: left behind, its blocks stay in
            # ``fs.used`` and every retry of this version fails to create it.
            yield from self.drop(segid, new_version)
            raise
        return seg

    def consolidate(self, segid: int, keep: int = KEEP_VERSIONS):
        """Merge old committed versions into the newest ``keep`` ones.

        Every retained version is materialized — its holes filled from the
        chain below — before anything beneath it is dropped, so COW chains
        never dangle.
        """
        fam = self._segs.get(segid)
        committed = [seg for seg in fam.versions if seg.committed] if fam else []
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
            yield from self.fs.write(seg.fs_name, lo, hi - lo)
        seg.base_version = None

    # -- out-of-band state injection (preload & failure harnesses) --------
    def plant(self, seg: StoredSegment) -> StoredSegment:
        """Install a fully-formed version with zero simulated I/O.

        Benchmark preloading and test fixtures only: the caller has
        already built the :class:`StoredSegment` (extents included) and
        does its own FS accounting.  Goes through the indexed insert
        path so every query stays coherent.
        """
        if self.get(seg.segid, seg.version) is not None:
            raise SegmentError(f"already hold {seg.segid:#x} v{seg.version}")
        self._add(seg)
        return seg

    def lose_segment(self, segid: int) -> None:
        """Silently forget every version of one segment (failure
        injection: replica loss behind the system's back, no FS I/O)."""
        for v in self.versions_of(segid):
            self._remove(segid, v)

    def wipe(self) -> None:
        """Forget everything (wiped-disk failure injection).  The caller
        resets the backing FS separately."""
        self._segs.clear()
        self._bytes = 0
        self.generation += 1

    # -- helpers ----------------------------------------------------------
    def _require(self, segid: int, version: int) -> StoredSegment:
        fam = self._segs.get(segid)   # ``get``, without its frame
        if fam is not None:
            for seg in fam.versions:
                if seg.version == version:
                    return seg
        raise SegmentError(f"no segment {segid:#x} v{version} here")
