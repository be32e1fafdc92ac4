"""The data path: open, read, write, truncate, unlink, atomic append.

Covers Figure 6's read path, the attached small-file fast path
(Section 3.2), the versioning-off in-place path (Section 3.5), and the
Figure 4 atomic-append recipe.

Reads and writes are *vectored*: the layout's pieces are grouped by
resolved owner and each group travels as one ``seg_read`` / ``seg_write``
carrying its piece list; :meth:`DataPathMixin._seg_call` is the one place
that sends either.  Per-piece status in the reply lets a failed piece
degrade on its own: a read piece re-locates (``_read_piece_fallback``),
a write piece is re-sent alone and a second failure raises.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.client.handle import (
    CommitConflict,
    ConflictError,
    FileHandle,
    NotFoundError,
    SorrentoError,
    TimeoutError,
    _meta_size,
    make_layout_for,
)
from repro.core.layout import ATTACH_MAX
from repro.network.message import RpcRemoteError, RpcTimeout
from repro.sim import gather

#: seg_idx -> (owner, version) resolution for a batch of layout pieces.
OwnerMap = Dict[int, Tuple[str, int]]

OP_CPU = 1e-4                # calibration (DESIGN.md § 1): stub bookkeeping
#                              per client call, reference-GHz-seconds
OPEN_RTTS = 2                # paper: 2 TCP roundtrips to open a file


class DataPathMixin:
    """Byte-range I/O against segment owners."""

    # ============================================================== open
    def open(self, path: str, mode: str = "r", create: bool = False,
             meta_only: bool = False, **create_params):
        """Open a file; "w" starts a shadow session on the latest version.

        ``meta_only`` fetches just the layout from the index segment
        (cheaper; used by unlink, which never reads file data).
        """
        if mode not in ("r", "w"):
            raise ValueError(f"bad mode {mode!r}")
        self.stats["opens"] += 1
        yield self.node.cpu(OP_CPU)
        # Every open asks the namespace server: a stale base version would
        # surface as spurious commit conflicts, not just a stale snapshot.
        try:
            entry = yield from self._call_ns(
                "ns_lookup", path, rtts=OPEN_RTTS)
        except NotFoundError:
            if not (create and mode == "w"):
                raise
            try:
                entry = yield from self.create(path, **create_params)
            except ConflictError:
                # Lost a create race: the other writer's entry is ours too.
                entry = yield from self._call_ns("ns_lookup", path)
        fh = FileHandle(path=path, entry=entry, mode=mode,
                        layout=make_layout_for(entry),
                        attached=None, base_version=entry["version"])
        if entry["version"] > 0:
            yield from self._load_index(fh, meta_only=meta_only)
        return fh

    def _load_index(self, fh: FileHandle, meta_only: bool = False) -> None:
        """Fetch the index segment (Figure 6 step 2) and decode the layout.

        The namespace's latest version is authoritative; location-table
        announcements are asynchronous, so we insist on reading exactly
        ``entry["version"]`` of the index segment (retrying briefly while
        propagation is in flight) — otherwise a reopen right after a
        commit could resurrect a stale layout and lose that commit.

        The version gate is also what makes the index-meta cache safe: a
        cached meta is only used when it matches the entry version
        exactly, so staleness shows up as a miss, never as wrong data.
        (Versioning-off files rewrite their index at version 1 forever,
        which defeats the gate — they always fetch fresh.)
        """
        want = fh.entry["version"]
        meta = None
        use_meta_cache = fh.versioning
        if use_meta_cache:
            cached = self.meta_cache.get(fh.fileid, self.sim.now)
            if cached is not None and cached[0] == want:
                self._cache_note("meta_hits")
                meta, fh.index_owner = cached[1], cached[2]
            else:
                self._cache_note("meta_misses")
        for attempt in range(6):
            if meta is not None:
                break
            resp = yield from self._locate(fh.fileid,
                                           read={"meta_only": meta_only})
            inline = resp.get("inline")
            if inline is not None and inline["version"] == want:
                meta = inline["meta"]
                fh.index_owner = resp["owners"][0][0] if resp["owners"] else None
                break
            # The table's advertised versions may lag: try every owner for
            # the exact version we need.
            for owner, _v in resp["owners"]:
                try:
                    pr, = yield from self._seg_call(owner, "seg_read", [
                        {"segid": fh.fileid, "version": want, "offset": 0,
                         "length": 0, "meta_only": meta_only}])
                except (RpcTimeout, RpcRemoteError):
                    continue
                if pr["ok"]:
                    meta = pr["meta"]
                    fh.index_owner = owner
                    break
            if meta is not None:
                break
            yield self.sim.timeout(0.02 * (attempt + 1))
        if meta is None:
            raise TimeoutError(
                f"index segment of {fh.path} v{want} unavailable"
            )
        if use_meta_cache:
            self.meta_cache.put(fh.fileid, (want, meta, fh.index_owner),
                                self.sim.now)
        fh.layout = meta["layout"].clone()
        fh.attached_len = meta.get("attached_len", 0)
        fh.attached = meta.get("attached")

    # ============================================================== read
    def read(self, fh: FileHandle, offset: int, length: int,
             sequential: bool = False):
        """Read a byte range; returns bytes, or None for synthetic content
        (size-only data segments and size-only attached files alike)."""
        self._check_open(fh)
        self.stats["reads"] += 1
        yield self.node.cpu(OP_CPU)
        end = min(offset + length, fh.size)
        if end <= offset:
            return b""
        length = end - offset
        if not fh.layout.segments:  # attached small file
            if fh.attached is None:
                return None
            return fh.attached[offset:offset + length]
        pieces = fh.layout.locate(offset, length)
        chunks = yield from self._read_pieces(fh, pieces, sequential)
        if any(c is None for c in chunks):
            return None
        return b"".join(chunks)

    def _resolve_owners(self, fh: FileHandle, pieces) -> OwnerMap:
        """(owner, version) per segment index: session state first (shadow
        copies, segments created this session), then the location cache /
        home host — parallel lookups for the distinct unresolved SegIDs."""
        owners: OwnerMap = {}
        unresolved: List[int] = []
        for seg_idx in dict.fromkeys(p[0] for p in pieces):
            ref = fh.layout.segments[seg_idx]
            shadow = fh.shadows.get(ref.segid)
            if shadow is not None:
                owners[seg_idx] = shadow
            elif ref.segid in fh.new_segments:
                owners[seg_idx] = (fh.new_segments[ref.segid], 1)
            else:
                unresolved.append(seg_idx)
        if unresolved:
            resps = yield from gather(self.sim, [
                self._locate(fh.layout.segments[s].segid)
                for s in unresolved
            ])
            for seg_idx, resp in zip(unresolved, resps):
                ref = fh.layout.segments[seg_idx]
                owner, _have = self._pick_owner(resp["owners"])
                # Read exactly the version the index names (snapshot
                # isolation); the table may advertise newer or older.
                owners[seg_idx] = (owner, ref.version)
        return owners

    def _seg_call(self, owner: str, service: str, pieces: List[dict],
                  sequential: bool = False, size: Optional[int] = None):
        """The one data RPC: ``pieces`` to ``owner`` as a single
        ``seg_read`` / ``seg_write``.  Learns every answered piece's owner
        hint and returns the per-piece replies; a piece the owner could
        not serve comes back with ``ok`` False and the provider's error.
        A request costs 48 B, 16 B per piece and, for a write, the
        pieces' bytes."""
        if size is None:
            size = 48 + 16 * len(pieces)
            if service == "seg_write":
                size += sum(p["length"] for p in pieces)
        r = yield from self.rpc.call(
            owner, service, {"pieces": pieces, "sequential": sequential},
            size=size)
        if len(pieces) > 1:
            self._cache_note("vec_rpcs")
            self._cache_note("vec_pieces", len(pieces))
        for pr in r["pieces"]:
            if pr["ok"]:
                self._learn_hint(pr["segid"], pr)
        return r["pieces"]

    def _read_pieces(self, fh: FileHandle, pieces, sequential: bool):
        """Fetch pieces grouped by owner; returns chunks in piece order."""
        owners = yield from self._resolve_owners(fh, pieces)
        chunks: List[Optional[bytes]] = [None] * len(pieces)
        reqs: List[dict] = []
        groups: Dict[str, List[int]] = {}
        for i, (seg_idx, seg_off, n) in enumerate(pieces):
            owner, version = owners[seg_idx]
            reqs.append({"segid": fh.layout.segments[seg_idx].segid,
                         "version": version, "offset": seg_off, "length": n})
            groups.setdefault(owner, []).append(i)

        def fetch_group(owner: str, idxs: List[int]):
            try:
                replies = yield from self._seg_call(
                    owner, "seg_read", [reqs[i] for i in idxs], sequential)
            except (RpcTimeout, RpcRemoteError):
                # The whole call failed (owner dead/unreachable): drop
                # its cached claims and recover piece by piece.
                self.loc_cache.evict_owner(owner)
                replies = [None] * len(idxs)
            for i, pr in zip(idxs, replies):
                if pr and pr["ok"]:
                    chunks[i] = pr["data"]
                else:
                    chunks[i] = yield from self._read_piece_fallback(
                        fh, pieces[i], sequential, owner)

        yield from gather(self.sim, [
            fetch_group(owner, idxs) for owner, idxs in groups.items()
        ])
        return chunks

    def _read_piece_fallback(self, fh: FileHandle, piece, sequential: bool,
                             failed: str):
        """``failed`` died or lacks the version: evict the cached claim,
        re-locate through the home host (Section 3.4.1) and read whatever
        version another owner holds.  The multicast probe (Section 3.4.2)
        is the backup only when the table names no other owner."""
        seg_idx, seg_off, n = piece
        ref = fh.layout.segments[seg_idx]
        self._evict_location(ref.segid)
        resp = yield from self._locate(ref.segid, refresh=True)
        others = [o for o in resp["owners"] if o[0] != failed]
        # The table may not have heard of the failure yet; the cache keeps
        # only the others either way.
        self.loc_cache.evict(ref.segid)
        self.loc_cache.store(ref.segid, others, self.sim.now)
        if others:
            other = self._pick_owner(others)
        else:
            other = yield from self._probe(ref.segid)
        pr, = yield from self._seg_call(other[0], "seg_read", [
            {"segid": ref.segid, "version": None, "offset": seg_off,
             "length": n}], sequential)
        if not pr["ok"]:
            raise RpcRemoteError(other[0], "seg_read", pr["error"])
        return pr["data"]

    # ============================================================== write
    def write(self, fh: FileHandle, offset: int, length: int,
              data: Optional[bytes] = None, sequential: bool = False):
        """Write a byte range into the session's shadow copies.

        ``data=None`` is a size-only write (the ``SYNTHETIC`` rule of
        :mod:`repro.core.segment`): on an attached file that holds no
        literal bytes it only grows ``attached_len``; onto literal
        attached bytes it zero-fills, as a literal write does to a
        size-only prefix.  ``sequential`` is accepted for symmetry with
        :meth:`read`; an owner judges a write's pattern itself.
        """
        self._check_open(fh)
        if fh.mode != "w":
            raise SorrentoError("file not open for writing")
        if data is not None and len(data) != length:
            raise SorrentoError("data/length mismatch")
        self.stats["writes"] += 1
        yield self.node.cpu(OP_CPU)
        if not fh.versioning:
            yield from self._write_in_place(fh, offset, length, data)
            return
        fh.dirty = True
        end = offset + length
        # Small files stay attached to the index segment.
        if not fh.layout.segments and end <= ATTACH_MAX:
            if data is None and fh.attached is None:
                fh.attached_len = max(fh.attached_len, end)
                return
            buf = bytearray(fh.attached if fh.attached is not None
                            else b"\x00" * fh.attached_len)
            if len(buf) < end:
                buf.extend(b"\x00" * (end - len(buf)))
            if data is not None:
                buf[offset:end] = data
            fh.attached = bytes(buf)
            fh.attached_len = len(buf)
            return
        if not fh.layout.segments and fh.attached_len > 0:
            # An attached file outgrew 60 KB: its bytes move into a real
            # data segment first.
            payload, n = fh.attached, fh.attached_len
            fh.attached, fh.attached_len = None, 0
            yield from self._write_shadows(fh, 0, n, payload)
        yield from self._write_shadows(fh, offset, length, data)

    def _write_shadows(self, fh: FileHandle, offset: int, length: int,
                       data: Optional[bytes]):
        """Grow the layout over the range, create the new segments, and
        push the pieces to each touched segment's writable version."""
        end = offset + length
        if end > fh.layout.size:
            for ref in fh.layout.grow_to(end, self.ids.new_id):
                yield from self._create_segment(fh, ref)
        pieces = fh.layout.locate(offset, length)
        # Resolve each distinct segment's writable version first (serially)
        # so the parallel piece writes below never race to create the same
        # shadow or striped segment.
        owners: OwnerMap = {}
        for seg_idx in dict.fromkeys(p[0] for p in pieces):
            owners[seg_idx] = yield from self._writable_version(
                fh, fh.layout.segments[seg_idx])
        yield from self._write_pieces(fh, pieces, data, owners)

    def _write_pieces(self, fh: FileHandle, pieces, data: Optional[bytes],
                      owners: OwnerMap, in_place: bool = False):
        """Push pieces grouped by owner, one ``seg_write`` per group."""
        groups: Dict[str, List[dict]] = {}
        pos = 0
        for seg_idx, seg_off, n in pieces:
            owner, version = owners[seg_idx]
            req = {"segid": fh.layout.segments[seg_idx].segid,
                   "version": version, "offset": seg_off, "length": n,
                   "data": data[pos:pos + n] if data is not None else None}
            if in_place:
                req["in_place"] = True
            pos += n
            groups.setdefault(owner, []).append(req)

        def push_group(owner: str, reqs: List[dict]):
            try:
                replies = yield from self._seg_call(owner, "seg_write", reqs)
            except RpcTimeout as exc:
                self.loc_cache.evict_owner(owner)
                if in_place:
                    raise
                # The shadows' owner died mid-session: the write (and the
                # whole session) cannot complete; the shadow TTL cleans up.
                for req in reqs:
                    fh.shadows.pop(req["segid"], None)
                raise TimeoutError(
                    f"owner of segment {reqs[0]['segid']:#x} died mid-write: {exc}"
                ) from exc
            for req, pr in zip(reqs, replies):
                if pr["ok"]:
                    continue
                if len(reqs) == 1:
                    raise RpcRemoteError(owner, "seg_write", pr["error"])
                # A failed piece of a batch is re-sent alone, and fails
                # the write only if it fails again.
                self._evict_location(req["segid"])
                yield from push_group(owner, [req])

        yield from gather(self.sim, [
            push_group(owner, reqs) for owner, reqs in groups.items()
        ])

    # ================================================ versioning-off path
    def truncate(self, fh: FileHandle, size: int):
        """Pre-size a versioning-disabled file (grow only).

        Shared-file users size the file up front (as BTIO declares its
        solution size); concurrent *growth* from different clients is
        inherently racy because each client's layout copy would mint
        different segments for the same byte ranges.
        """
        self._check_open(fh)
        if fh.versioning:
            raise SorrentoError(
                "truncate is for versioning-disabled files; versioned "
                "files grow through write+commit")
        if size < fh.layout.size:
            raise SorrentoError("shrinking is not supported")
        lock = self._fh_meta_lock(fh)
        grant = lock.request()
        yield grant
        try:
            yield from self._grow_in_place(fh, size)
        finally:
            lock.release()
        return size

    def _fh_meta_lock(self, fh: FileHandle):
        """Per-handle mutex for layout growth: concurrent writes on one
        handle (list-I/O) must not race to create the same segments."""
        lock = getattr(fh, "_meta_lock", None)
        if lock is None:
            from repro.sim import Resource

            lock = Resource(self.sim, 1)
            fh._meta_lock = lock
        return lock

    def _write_in_place(self, fh: FileHandle, offset: int, length: int,
                        data: Optional[bytes]):
        """Versioning-disabled path: mutate committed segments directly."""
        end = offset + length
        lock = self._fh_meta_lock(fh)
        grant = lock.request()
        yield grant
        try:
            yield from self._grow_in_place(fh, end)
        finally:
            lock.release()
        pieces = fh.layout.locate(offset, length)
        # No shadows here, and every segment stays at version 1.
        owners = yield from self._resolve_owners(fh, pieces)
        yield from self._write_pieces(fh, pieces, data, owners,
                                      in_place=True)

    def _grow_in_place(self, fh: FileHandle, end: int):
        if end > fh.layout.size:
            created = fh.layout.grow_to(end, self.ids.new_id)
            for ref in created:
                yield from self._create_segment(fh, ref, committed=True,
                                                degree=1)
            # Unversioned layout changes publish immediately via the index.
            yield from self._publish_unversioned_index(fh)

    def _publish_unversioned_index(self, fh: FileHandle):
        """Keep the unversioned file's index segment current (v1 rewrite)."""
        meta = {"layout": fh.layout.clone(),
                "attached": None, "attached_len": 0}
        if fh.index_owner is None:
            owner = self._place_new_segment(fh.fileid, 4096, fh.entry["alpha"])
            yield from self.rpc.call(
                owner, "seg_create",
                {"segid": fh.fileid, "version": 1, "committed": True,
                 "degree": 1, "alpha": fh.entry["alpha"], "meta": meta},
                size=_meta_size(meta),
            )
            fh.index_owner = owner
            self.loc_cache.learn(fh.fileid, owner, 1, self.sim.now)
            if fh.entry["version"] == 0:
                yield from self._ns_commit_cycle(fh)
        else:
            # Rewrite meta on the existing owner (segment stays v1).
            pr, = yield from self._seg_call(fh.index_owner, "seg_write", [
                {"segid": fh.fileid, "version": 1, "offset": 0, "length": 0,
                 "in_place": True}], size=_meta_size(meta))
            if not pr["ok"]:
                raise RpcRemoteError(fh.index_owner, "seg_write", pr["error"])
            # Owner-side meta update rides on the same call in the real
            # system; emulate by a direct state poke through seg_commit.
            yield from self.rpc.call(
                fh.index_owner, "seg_commit",
                {"segid": fh.fileid, "version": 1, "meta": meta},
                size=_meta_size(meta),
            )

    def _ns_commit_cycle(self, fh: FileHandle):
        """Advance the namespace version 0 -> 1 for unversioned files."""
        resp = yield from self._call_ns(
            "ns_begin_commit", {"path": fh.path, "base_version": 0}, size=96)
        if resp["status"] != "ok":
            raise CommitConflict(f"{fh.path}: {resp['status']}")
        entry = yield from self._call_ns(
            "ns_complete_commit", {"path": fh.path, "new_version": 1}, size=96)
        fh.entry = entry
        fh.base_version = 1

    # ============================================================== unlink
    def unlink(self, path: str):
        """Remove a file, eagerly deleting every replica of its segments.

        Replicas of one segment are deleted in turn (this is what makes
        unlink response time grow with the replication degree, Figure 9);
        distinct segments go in parallel.
        """
        yield self.node.cpu(OP_CPU)
        fh = yield from self.open(path, "r", meta_only=True)
        entry = yield from self._call_ns("ns_unlink", path)
        segids = [ref.segid for ref in fh.layout.segments] + [entry["fileid"]]
        # The file is gone: drop every cached trace of it (organic
        # invalidation, not staleness — no counter).
        self.meta_cache.evict(entry["fileid"])
        for segid in segids:
            self.loc_cache.evict(segid)
        deletions = [self._delete_everywhere(segid) for segid in segids]
        yield from gather(self.sim, deletions)
        return entry

    def _delete_everywhere(self, segid: int):
        try:
            # Deletion must see the full owner list, not a cached subset.
            resp = yield from self._locate(segid, refresh=True)
        except SorrentoError:
            return
        owners = {h for h, _ in resp["owners"]}
        for host in sorted(owners):
            try:
                yield from self.rpc.call(host, "seg_delete",
                                         {"segid": segid}, size=48)
            except (RpcTimeout, RpcRemoteError):
                pass

    # ======================================================= atomic append
    def atomic_append(self, path: str, length: int,
                      data: Optional[bytes] = None, create: bool = True,
                      **create_params):
        """Figure 4: optimistic append, retrying on commit conflicts."""
        while True:
            fh = yield from self.open(path, "w", create=create,
                                      **create_params)
            try:
                yield from self.write(fh, fh.size, length, data=data,
                                      sequential=True)
                version = yield from self.close(fh)
                return version
            except CommitConflict:
                yield from self.drop(fh)
                # Randomized backoff keeps racing appenders from livelock.
                yield self.sim.timeout(self.rng.uniform(0.002, 0.02))
                continue
