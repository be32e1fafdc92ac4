"""Version-based consistency (Section 3.5; Figure 6 steps 6–9).

Shadow creation, two-phase commit across shadowed segments, and
conflict detection.  Section 3.6's synchronous commitment is the
providers' ``eager_propagation``, not a client option.
"""

from __future__ import annotations

from typing import Optional

from repro.core.client.handle import (
    CommitConflict,
    FileHandle,
    SorrentoError,
    TimeoutError,
)
from repro.core.layout import Layout
from repro.core.twophase import CommitAborted, two_phase_commit
from repro.network.message import RpcRemoteError, RpcTimeout
from repro.sim import gather

CLOSE_RTTS = 3               # paper: 3 TCP roundtrips to close a file


class VersioningMixin:
    """Shadow/commit/close lifecycle of a write session."""

    def _writable_version(self, fh: FileHandle, ref):
        """The (owner, version) this session writes for a data segment,
        creating the shadow copy on first touch (Figure 6 step 4)."""
        if ref.segid in fh.new_segments:
            return fh.new_segments[ref.segid], 1
        shadow = fh.shadows.get(ref.segid)
        if shadow is not None:
            return shadow
        if fh.base_version == 0:
            # The file was never committed, so this segment (pre-allocated
            # in the layout, e.g. striped mode) has no owner yet.
            owner = yield from self._create_segment(fh, ref)
            return owner, 1
        resp = yield from self._locate(ref.segid)
        last_error: Optional[Exception] = None
        for round_ in range(2):
            saw_race = False
            for owner, _v in resp["owners"] or []:
                try:
                    r = yield from self.rpc.call(
                        owner, "seg_create_shadow",
                        {"segid": ref.segid, "base_version": ref.version},
                        size=64,
                    )
                    fh.shadows[ref.segid] = (owner, r["version"])
                    fh.affinity_owner = owner
                    return owner, r["version"]
                except RpcRemoteError as exc:
                    # Another writer already shadows base+1 on this owner: a
                    # write-write race surfaced early (it would conflict at
                    # commit anyway).
                    if "exists" in str(exc).lower():
                        saw_race = True
                    last_error = exc
                except RpcTimeout as exc:
                    last_error = exc
            if saw_race:
                raise CommitConflict(
                    f"segment {ref.segid:#x} already shadowed by another "
                    f"writer"
                )
            if round_ == 0 and resp.get("cached"):
                # Every cached owner refused or vanished: the claims were
                # stale.  Drop them and retry once against the real table.
                self._evict_location(ref.segid)
                resp = yield from self._locate(ref.segid, refresh=True)
                continue
            break
        raise SorrentoError(
            f"cannot shadow segment {ref.segid:#x}: {last_error}"
        )

    # ========================================================= commit/close
    def commit(self, fh: FileHandle, close: bool = False):
        """Commit the session's shadow copies as the next file version.

        Figure 6 steps (6)-(9): shadow the index segment, get namespace
        approval, 2PC all shadows, then complete the version commit.
        Raises :class:`CommitConflict` if another writer got there first.
        """
        self._check_open(fh)
        if not fh.versioning:
            return fh.entry["version"]
        if not fh.dirty and fh.base_version > 0:
            return fh.entry["version"]
        self.stats["commits"] += 1
        new_version = fh.base_version + 1
        meta = {"layout": self._committed_layout(fh),
                "attached": fh.attached, "attached_len": fh.attached_len}
        # (6) shadow (or create) the index segment.
        try:
            index_owner, index_version = yield from self._prepare_index(fh)
        except RpcTimeout as exc:
            raise TimeoutError(
                f"{fh.path}: index segment owner unreachable: {exc}"
            ) from exc
        # (7) namespace approval, with bounded retry while "busy".
        for attempt in range(20):
            resp = yield from self._call_ns(
                "ns_begin_commit",
                {"path": fh.path, "base_version": fh.base_version}, size=96)
            status = resp["status"]
            if status == "ok":
                break
            if status in ("conflict", "lease_held"):
                yield from self._abort_shadows(fh, index_owner, index_version)
                self.stats["conflicts"] += 1
                raise CommitConflict(f"{fh.path}: {status}")
            yield self.sim.timeout(0.005 * (attempt + 1))
        else:
            yield from self._abort_shadows(fh, index_owner, index_version)
            raise TimeoutError(f"{fh.path}: commit grant starved")
        # (8) 2PC across every shadowed/new segment + the index shadow.
        participants = [
            (owner, {"segid": segid, "version": version})
            for segid, (owner, version) in fh.shadows.items()
        ] + [
            (owner, {"segid": segid, "version": 1})
            for segid, owner in fh.new_segments.items()
        ] + [
            (index_owner, {"segid": fh.fileid, "version": index_version,
                           "meta": meta}),
        ]
        try:
            yield from two_phase_commit(self.rpc, participants)
        except CommitAborted as exc:
            yield from self._call_ns("ns_abort_commit", {"path": fh.path})
            raise SorrentoError(f"{fh.path}: 2PC failed: {exc}") from exc
        # (9) complete the version commit.
        entry = yield from self._call_ns(
            "ns_complete_commit",
            {"path": fh.path, "new_version": new_version}, size=96,
            rtts=CLOSE_RTTS if close else 1,
        )
        fh.entry = entry
        fh.base_version = new_version
        fh.index_owner = index_owner
        for segid, (_owner, version) in fh.shadows.items():
            for ref in fh.layout.segments:
                if ref.segid == segid:
                    ref.version = version
        # The just-committed versions are the freshest location knowledge
        # anywhere: seed the caches so the next session (ours or a reopen)
        # skips the lookup roundtrips entirely.
        now = self.sim.now
        for segid, (owner, version) in fh.shadows.items():
            self.loc_cache.learn(segid, owner, version, now)
        for segid, owner in fh.new_segments.items():
            self.loc_cache.learn(segid, owner, 1, now)
        self.loc_cache.learn(fh.fileid, index_owner, index_version, now)
        if fh.versioning:
            self.meta_cache.put(fh.fileid, (new_version, meta, index_owner),
                                self.sim.now)
        fh.shadows.clear()
        fh.new_segments.clear()
        fh.dirty = False
        return new_version

    def _committed_layout(self, fh: FileHandle) -> Layout:
        layout = fh.layout.clone()
        for ref in layout.segments:
            shadow = fh.shadows.get(ref.segid)
            if shadow is not None:
                ref.version = shadow[1]
            elif ref.segid in fh.new_segments:
                ref.version = 1
        return layout

    def _prepare_index(self, fh: FileHandle):
        if fh.base_version == 0:
            # First commit: the index segment does not exist yet.
            owner = self._place_new_segment(fh.fileid, 4096, fh.entry["alpha"])
            try:
                yield from self.rpc.call(
                    owner, "seg_create",
                    {"segid": fh.fileid, "version": 1,
                     "degree": fh.entry["degree"], "alpha": fh.entry["alpha"],
                     "placement": fh.entry.get("placement", "load")},
                    size=96,
                )
            except RpcRemoteError as exc:
                if "exists" in str(exc).lower():
                    raise CommitConflict(
                        f"{fh.path}: concurrent first commit"
                    ) from exc
                raise
            return owner, 1
        owner = fh.index_owner
        if owner is None:
            # A stale cached index owner would surface here as a spurious
            # "index already advanced" conflict — always ask the table.
            resp = yield from self._locate(fh.fileid, refresh=True)
            owner, _ = self._pick_owner(resp["owners"])
        for round_ in range(2):
            try:
                r = yield from self.rpc.call(
                    owner, "seg_create_shadow",
                    {"segid": fh.fileid, "base_version": fh.base_version},
                    size=64,
                )
            except RpcRemoteError as exc:
                if "exists" in str(exc).lower():
                    # Another writer already shadows base+1: a real race.
                    yield from self._abort_shadows(fh, owner,
                                                   fh.base_version + 1)
                    self.stats["conflicts"] += 1
                    raise CommitConflict(
                        f"{fh.path}: index already advanced") from exc
                if "no committed base" in str(exc):
                    if round_ == 0:
                        # The remembered owner may simply be stale (the
                        # index segment migrated away): drop every cached
                        # claim and retry once against the live table.
                        self.meta_cache.evict(fh.fileid)
                        self._evict_location(fh.fileid)
                        resp = yield from self._locate(fh.fileid,
                                                       refresh=True)
                        owner, _ = self._pick_owner(resp["owners"])
                        continue
                    # A fresh owner also lacks our base version: someone
                    # committed past us.
                    yield from self._abort_shadows(fh, owner,
                                                   fh.base_version + 1)
                    self.stats["conflicts"] += 1
                    raise CommitConflict(
                        f"{fh.path}: index already advanced") from exc
                raise
            return owner, r["version"]

    def _abort_shadows(self, fh: FileHandle, index_owner: str,
                       index_version: int):
        aborts = [
            self.rpc.call(owner, "seg_abort",
                          {"segid": segid, "version": version}, size=48)
            for segid, (owner, version) in fh.shadows.items()
        ]
        aborts.append(
            self.rpc.call(index_owner, "seg_abort",
                          {"segid": fh.fileid, "version": index_version},
                          size=48)
        )

        def safe(gen):
            try:
                yield from gen
            except (RpcTimeout, RpcRemoteError):
                pass

        yield from gather(self.sim, [safe(a) for a in aborts])
        fh.shadows.clear()
        fh.dirty = False

    def close(self, fh: FileHandle):
        """Close = implicit commit (Section 3.5)."""
        if fh.closed:
            return fh.entry["version"]
        try:
            if fh.mode == "w" and fh.versioning \
                    and (fh.dirty or fh.base_version == 0):
                # Closing a brand-new file commits version 1 even when
                # empty: the file must exist durably after create+close.
                version = yield from self.commit(fh, close=True)
            else:
                version = fh.entry["version"]
        finally:
            fh.closed = True
        return version

    def drop(self, fh: FileHandle):
        """Abandon the session's shadow copies without committing."""
        if fh.dirty:
            index_owner = fh.index_owner or self.router.route_host(fh.path)
            yield from self._abort_shadows(fh, index_owner, fh.base_version + 1)
        fh.closed = True
