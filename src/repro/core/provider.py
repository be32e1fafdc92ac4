"""The storage provider daemon: the composition of a provider's three
hats, and the data service of the first.

* **owner** — it stores segments on its native FS (:class:`SegmentStore`)
  and serves client reads/writes (``seg_read`` / ``seg_write``, each a
  piece list answered with per-piece status), shadow creation, 2PC
  participation and the copies behind sync, replication and migration;
* **home host** — ``provider.home``, a :class:`LocationHome`: the
  location table of the SegIDs hashed to it, and the supervision of
  their replicas (lazy update propagation, Section 3.6);
* **self-organizer** — heartbeats, ``provider.owner`` (a
  :class:`LocationOwner`: the four refresh events of Section 3.4.1) and
  ``provider.migrator`` (a :class:`Migrator`: Section 3.7).
"""

from __future__ import annotations

import random
import zlib
from typing import List, Optional, Tuple

from repro.core.locality import AccessHistory
from repro.core.location import BYTE_CPU, OP_CPU, LocationHome, LocationOwner
from repro.core.membership import HEARTBEAT_GROUP, MembershipManager
from repro.core.migration import Migrator
from repro.core.params import SorrentoParams
from repro.core.segment import SegmentError, SegmentStore, StoredSegment
from repro.network.message import RpcRemoteError, RpcTimeout
from repro.sim import Resource
from repro.storage import DiskIOError, StorageEngine

#: Multicast group for the backup location scheme (Section 3.4.2).
LOCATION_GROUP = "sorrento-loc"


def _meta_bytes(meta: Optional[dict]) -> int:
    """On-disk footprint of an index segment's contents."""
    if not meta:
        return 4096
    layout = meta.get("layout")
    nsegs = len(layout.segments) if layout is not None else 0
    return 4096 + 24 * nsegs + (meta.get("attached_len") or 0)


class StorageProvider:
    """One provider daemon on one cluster node."""

    #: The data service's handlers (the home registers its own two).
    SERVICES = (
        "seg_create", "seg_create_shadow", "seg_write", "seg_read",
        "seg_prepare", "seg_commit", "seg_abort", "seg_delete",
        "seg_fetch", "seg_sync", "seg_replicate", "seg_trim",
        "loc_lookup", "loc_probe",
    )
    #: Every multicast group a provider joins (heartbeat through its
    #: MembershipManager).  A dormant shell of another partition's
    #: provider joins them too, so a multicast sent in this partition
    #: reaches the owner through the transit.
    GROUPS = (HEARTBEAT_GROUP, LOCATION_GROUP)

    def __init__(self, node, volume: str, params: Optional[SorrentoParams] = None,
                 rng: Optional[random.Random] = None):
        if node.fs is None:
            raise ValueError(f"{node.hostid} exports no storage")
        self.node, self.sim, self.rpc = node, node.sim, node.runtime
        self.volume = volume
        self.params = params or SorrentoParams()
        # crc32, not hash(): the builtin string hash is randomized per
        # interpreter launch (PYTHONHASHSEED), which would make "same
        # seed, same run" hold only within one process.
        self.rng = rng or random.Random(zlib.crc32(node.hostid.encode()) & 0xFFFF)
        self.store = SegmentStore(self.sim, node.fs,
                                  shadow_ttl=self.params.shadow_ttl)
        if self.params.cache_bytes > 0 and node.fs.engine is None:
            # The storage engine (page cache + write-back + scheduler)
            # is strictly opt-in: with cache_bytes=0 the FS talks to the
            # raw device exactly as before.
            node.fs.engine = StorageEngine(
                self.sim, node.fs.device,
                cache_bytes=self.params.cache_bytes,
                writeback=self.params.writeback,
                metrics=node.runtime.registry,
                host=node.hostid,
            )
        self.history = AccessHistory()
        self.membership = MembershipManager(
            node, interval=self.params.heartbeat_interval, announce=True
        )
        self.home = LocationHome(node, self.params, self.rng, self.membership)
        self.owner = LocationOwner(self.home, self.store)
        self.migrator = Migrator(self)
        self.membership.on_join.append(self.owner.ring.add_host)
        self.membership.on_leave.append(self.owner.ring.remove_host)
        self.membership.on_join.append(self.owner.on_join)
        self.membership.on_leave.append(self.home.drop_owner)
        self.membership.on_leave.append(self.owner.on_leave)
        # "we only allow one active data migration process per node"
        self.transfer_lock = Resource(self.sim, 1)
        self.stats = {"migrations": 0, "replications": 0, "syncs": 0,
                      "reads": 0}
        for svc in self.SERVICES:
            self.rpc.register(svc, getattr(self, "_h_" + svc), replace=True)
        self.rpc.subscribe(LOCATION_GROUP)
        node.daemon(self.owner.refresh_loop, "loc-refresh")
        node.daemon(self._shadow_sweep_loop, "shadow-sweep")
        node.daemon(self.migrator.loop, "migration")
        engine = node.fs.engine
        if engine is not None and engine.writeback:
            node.daemon(engine.flush_loop, "fs-flush")
        node.on_restart.append(self._rejoin)

    # ------------------------------------------------------------ lifecycle
    def _rejoin(self) -> None:
        """After a node restart: the location table is rebuilt.

        The paper: the location table "is reconstructed every time a
        storage provider starts up"; FS contents survive and the system
        works out "what data are still current and what are outdated"
        via versions.
        """
        engine = self.node.fs.engine
        if engine is not None:
            # Write-back pages died with the node: any version whose data
            # was only ever acknowledged from cache is gone.  Committed
            # versions synced before ack, so only shadows can drop here.
            for fs_name in sorted(engine.take_lost()):
                self.store.discard_lost(fs_name)
        self.home.reset()
        # Announce surviving segments to their home hosts right away.
        self.node.spawn(self.owner.refresh_everything(jitter=1.0), name="rejoin")

    # ----------------------------------------------------- common charging
    def _charge(self, nbytes: int = 0):
        yield self.node.cpu(OP_CPU + nbytes * BYTE_CPU)

    # ------------------------------------- owner services (client data path)
    def _h_seg_create(self, req: dict, src: str):
        yield from self._charge()
        seg = yield from self.store.create(
            req["segid"], req.get("version", 1),
            replication_degree=req.get("degree", 1),
            alpha=req.get("alpha", self.params.default_alpha),
            placement=req.get("placement", "load"),
            committed=req.get("committed", False),
            creator=src,
        )
        if req.get("meta") is not None:
            seg.meta = req["meta"]
        if seg.committed:
            self.owner.announce(seg)
        return {"version": seg.version}, 48

    def _h_seg_create_shadow(self, req: dict, src: str):
        yield from self._charge()
        seg = yield from self.store.create_shadow(req["segid"],
                                                  req["base_version"],
                                                  creator=src)
        return {"version": seg.version}, 48

    def _owner_hint(self, segid: int, version: int) -> List[Tuple[str, int]]:
        """Piggybacked location knowledge for a data-path reply: our own
        claim, merged with the location table's view when we happen to be
        the segment's home host (lazy propagation, Section 3.4/3.6)."""
        hint = [(self.node.hostid, version)]
        for host, v in self.home.table.lookup(segid):
            if host != self.node.hostid:
                hint.append((host, v))
        return hint

    def _write_one(self, req: dict, src: str):
        """One ``seg_write`` piece; the owner judges its own pattern."""
        segid, version = req["segid"], req["version"]
        length = req["length"]
        yield from self._charge(length)
        existing = self.store.get(segid, version)
        sequential = existing is not None and req["offset"] >= existing.extents.end
        seg = yield from self.store.write(
            segid, version, req["offset"], length, data=req.get("data"),
            sequential=sequential, in_place=req.get("in_place", False))
        self.history.record(segid, src, length)
        return {"version": seg.version, "size": seg.size}, 48

    def _h_seg_write(self, req: dict, src: str):
        return self._pieces(self._write_one, req["pieces"], src)

    def _pieces(self, one, pieces: List[dict], src: str, *args):
        """A data request's piece list, every piece through ``one(piece,
        src, *args)``.  Per-piece status lets a failed piece degrade to
        the client's retry path without poisoning its siblings.  Each
        piece is charged as if it travelled alone: its own bytes plus
        16 B per hint entry, or 64 B (an error reply) when it failed.
        The data handlers return this generator rather than delegating to
        it, which keeps a generator frame off every call."""
        out, total = [], 0
        for piece in pieces:
            try:
                resp, nbytes = yield from one(piece, src, *args)
            except (SegmentError, DiskIOError) as exc:
                out.append({"ok": False, "segid": piece["segid"],
                            "error": f"{type(exc).__name__}: {exc}"})
                total += 64
                continue
            hint = self._owner_hint(piece["segid"], resp["version"])
            resp["ok"] = True
            resp["segid"] = piece["segid"]
            resp["hint"] = hint
            out.append(resp)
            total += nbytes + 16 * len(hint)
        return {"owner": self.node.hostid, "pieces": out}, total

    def _read_one(self, req: dict, src: str, sequential: bool):
        """One ``seg_read`` piece (``version`` None: the latest committed)."""
        segid = req["segid"]
        version = req.get("version")
        yield from self._charge()
        if version is None:
            latest = self.store.latest_committed(segid)
            if latest is None:
                raise SegmentError(f"not an owner of {segid:#x}")
            version = latest.version
        length, data = req["length"], None
        seg = self.store.get(segid, version)
        if seg is not None and seg.meta is not None:
            # Index-segment fetch: disk pattern differs from data reads.
            length = yield from self._index_io(
                seg, meta_only=req.get("meta_only", False))
        else:
            data = yield from self.store.read(
                segid, version, req["offset"], length, sequential=sequential)
            yield from self._charge(length)
            seg = self.store.get(segid, version)
        self.history.record(segid, src, length)
        self.stats["reads"] += 1
        return {"version": version, "data": data, "length": length,
                "meta": seg.meta}, 64 + length

    def _h_seg_read(self, req: dict, src: str):
        return self._pieces(self._read_one, req["pieces"], src,
                            req["sequential"])

    # -- 2PC participant ---------------------------------------------------
    def _h_seg_prepare(self, req: dict, src: str):
        yield from self._charge()
        seg = self.store.get(req["segid"], req["version"])
        if seg is None or seg.committed:
            return seg is not None, 32  # already committed counts as yes
        if seg.expires_at is not None and seg.expires_at <= self.sim.now:
            return False, 32
        # A yes vote promises the data survives a crash: flush any
        # write-back pages for this shadow before answering.
        yield from self.node.fs.sync(seg.fs_name)
        # Hold the shadow through the commit window.
        seg.expires_at = self.sim.now + self.params.commit_grant_ttl * 4
        return True, 32

    def _h_seg_commit(self, req: dict, src: str):
        yield from self._charge()
        meta = req.get("meta")
        if meta is not None:
            # Persist the index segment's contents (layout + attached
            # data) before sealing the version: one positioned write.
            existing = self.store.get(req["segid"], req["version"])
            if existing is not None and not existing.committed:
                existing.meta = meta
                nbytes = _meta_bytes(meta)
                yield from self.store.write(req["segid"], req["version"],
                                            0, nbytes)
        seg = yield from self.store.commit(req["segid"], req["version"])
        if meta is not None:
            seg.meta = meta
        self.owner.announce(seg)
        hint = self._owner_hint(seg.segid, seg.version)
        # "Sorrento consolidates earlier versions of a segment and only
        # keeps one or a few latest stable versions" — off the commit
        # path, in the background.
        self.node.spawn(self._consolidate_later(req["segid"]),
                        name=f"consolidate:{req['segid']:x}")
        if self.params.eager_propagation:
            yield from self._eager_push(seg)
        return {"version": seg.version, "hint": hint}, 48 + 16 * len(hint)

    def _consolidate_later(self, segid: int):
        yield self.sim.timeout(1.0)
        try:
            yield from self.store.consolidate(segid,
                                              self.params.keep_versions)
        except SegmentError:
            pass  # segment deleted meanwhile

    def _h_seg_abort(self, req: dict, src: str):
        yield from self._charge()
        seg = self.store.get(req["segid"], req["version"])
        # Only the shadow's creator may abort it — a losing committer must
        # not be able to destroy a rival's in-flight shadow.
        if seg is not None and not seg.committed \
                and (not seg.created_by or seg.created_by == src):
            yield from self.store.drop(req["segid"], req["version"])
        return True, 32

    def _h_seg_delete(self, req: dict, src: str):
        yield from self._charge()
        yield from self.erase(req["segid"])
        return True, 32

    def _h_seg_trim(self, req: dict, src: str):
        """Home host asked us to drop an excess replica."""
        yield from self._charge()
        mine = self.store.latest_committed(req["segid"])
        if mine is None or mine.version != req["version"]:
            return False, 32  # not ours to trim (stale request)
        yield from self.erase(req["segid"])
        return True, 32

    def erase(self, segid: int):
        """Drop our copy (delete, trim, migration) and tell the home host."""
        yield from self.store.delete_segment(segid)
        self.history.forget(segid)
        self.owner.retract(segid)

    # -- transfer services (sync / replicate / migrate) ------------------
    def _h_seg_fetch(self, req: dict, src: str):
        """Serve segment content to a peer (full copy or version diff)."""
        segid = req["segid"]
        seg = self.store.get(segid, req["version"]) if req.get("version") \
            else self.store.latest_committed(segid)
        if seg is None or not seg.committed:
            raise SegmentError(f"cannot serve {segid:#x}")
        since = req.get("since")
        regions = None
        if since is not None:
            regions = self.store.export_diff(segid, since, seg.version)
        # Serving replication reads from dirty cache would replicate data
        # that a crash could still lose — flush first (no-op when clean).
        yield from self.node.fs.sync(seg.fs_name)
        data = None
        if regions is not None:
            nbytes = sum(e - s for s, e, _ in regions)
            yield from self._charge(nbytes)
            if nbytes > 0:
                yield self.node.fs.charge_read(seg.fs_name, 0, nbytes,
                                               sequential=True)
        else:
            nbytes = seg.size
            yield from self._charge(nbytes)
            data = yield from self.store.read(segid, seg.version, 0, nbytes,
                                              sequential=True)
        return {
            "segid": segid, "version": seg.version, "size": seg.size,
            "degree": seg.replication_degree, "alpha": seg.alpha,
            "placement": seg.placement, "meta": seg.meta,
            "regions": regions, "data": data,
        }, 128 + nbytes

    def _h_seg_sync(self, req: dict, src: str):
        """Home host told us our replica is stale: pull the diff."""
        yield from self._charge()
        segid, target_version = req["segid"], req["version"]
        mine = self.store.latest_committed(segid)
        if mine is not None and mine.version >= target_version:
            return {"version": mine.version}, 48
        resp = yield from self._fetch(
            req, mine.version if mine is not None else None)
        if self.store.get(segid, resp["version"]) is None:
            seg = yield from self._install(segid, resp)
            yield from self.store.consolidate(segid, self.params.keep_versions)
            self.owner.announce(seg)
        self.stats["syncs"] += 1
        return {"version": resp["version"]}, 48

    def _h_seg_replicate(self, req: dict, src: str):
        """Home host (or a migrating peer) asked us to host a replica."""
        yield from self._charge()
        segid = req["segid"]

        def satisfied():
            mine = self.store.latest_committed(segid)
            return mine is not None and mine.version >= req["version"]

        if satisfied():
            return {"already": True, "version": req["version"]}, 48
        yield self.transfer_lock.request()
        try:
            if satisfied():
                return {"already": True, "version": req["version"]}, 48
            resp = yield from self._fetch(req)
            t0 = self.sim.now
            seg = yield from self._install(segid, resp)
            self.owner.announce(seg)
            self.stats["replications"] += 1
            # Pace background transfers so recovery/migration traffic does
            # not starve foreground I/O: hold the node's single transfer
            # slot until the average rate drops to repair_bandwidth.
            pace = resp["size"] / self.params.repair_bandwidth
            elapsed = self.sim.now - t0
            if pace > elapsed:
                yield self.sim.timeout(pace - elapsed)
            return {"already": False, "version": seg.version}, 48
        finally:
            self.transfer_lock.release()

    def _fetch(self, req: dict, since: Optional[int] = None):
        """``req``'s version of its segment from ``req["from"]``: the diff
        on our version ``since``, or (None) the whole copy."""
        return self.rpc.call(req["from"], "seg_fetch", {
            "segid": req["segid"], "version": req["version"], "since": since,
        }, size=64)

    def _install(self, segid: int, resp: dict):
        """Store a ``seg_fetch`` reply: a diff on our latest version, or
        (no ``regions``) the whole copy."""
        return (yield from self.store.apply_diff(
            segid, resp["version"], resp["size"], resp["regions"],
            data=resp["data"], replication_degree=resp["degree"],
            alpha=resp["alpha"], placement=resp["placement"],
            meta=resp["meta"]))

    # ------------------------- location answered from the store (Section 3.4)
    def _h_loc_lookup(self, req: dict, src: str):
        """Locate a segment's owners.  A home host owning the index
        segment an open asks to ``read`` "sends back the data immediately"
        instead of redirecting (Figure 6 step (2))."""
        segid = req["segid"]
        yield from self._charge()
        mine = self.store.latest_committed(segid)
        read = req.get("read")
        table = self.home.table
        latest_known = table.latest_version(segid)
        if mine is not None and mine.meta is not None and read is not None \
                and (latest_known is None or mine.version >= latest_known):
            # The inode + (unless meta-only) attached data.
            length = yield from self._index_io(
                mine, meta_only=read.get("meta_only", False))
            self.history.record(segid, src, length)
            resp = {
                "owners": table.lookup(segid) or [(self.node.hostid, mine.version)],
                "inline": {"version": mine.version, "meta": mine.meta},
            }
            nbytes = 96 + length
        else:
            owners = table.lookup(segid)
            if mine is not None and all(h != self.node.hostid for h, _ in owners):
                owners = [(self.node.hostid, mine.version)] + owners
            resp = {"owners": owners, "inline": None}
            nbytes = 64 + 16 * len(owners)
        if req.get("affinity"):
            # Opt-in (the compute scheduler sets it): the per-source byte
            # counts this home host's access history holds for the segment,
            # so a caller can score *who has been reading these bytes*
            # without a second RPC.  Existing flows never set the flag.
            traffic = self.history.traffic_by_source(segid)
            resp["affinity"] = traffic
            nbytes += 24 * len(traffic)
        return resp, nbytes

    def _h_loc_probe(self, req: dict, src: str) -> None:
        """Backup scheme: answer a multicast who-has query if we own it."""
        mine = self.store.latest_committed(req["segid"])
        if mine is not None:
            self.rpc.send(src, "loc_probe_hit", {
                "nonce": req["nonce"], "segid": req["segid"],
                "owner": self.node.hostid, "version": mine.version,
            }, size=64)

    def _index_io(self, seg, meta_only: bool = False):
        """Disk charge for reading an index segment: the native-FS inode
        plus, unless only the layout is needed, the attached file data.

        Routed per-file through the page cache when an engine is on —
        repeated index fetches are exactly the hot small reads a buffer
        cache absorbs (the paper's NFS small-file advantage, §6.2)."""
        yield self.node.fs.meta_io()
        attached = (seg.meta or {}).get("attached_len") or 0
        if not meta_only:
            yield self.node.fs.charge_read(seg.fs_name, 0,
                                           max(4096, attached))
        seg.last_access = self.sim.now
        return 0 if meta_only else attached

    # ------------------------------------------------- background loops
    def _shadow_sweep_loop(self):
        while True:
            yield self.sim.timeout(max(5.0, self.params.shadow_ttl / 4))
            for segid, version in self.store.expire_shadows():
                yield from self.store.drop(segid, version)

    # ------------------------------------------------- eager propagation
    def _eager_push(self, seg: StoredSegment):
        """Synchronous commitment: push the new version to every replica
        before acknowledging (Section 3.6)."""
        home = self.owner.home_of(seg.segid)
        if home is None:
            return
        try:
            if home == self.node.hostid:
                owners = self.home.table.lookup(seg.segid)
            else:
                resp = yield from self.rpc.call(
                    home, "loc_lookup", {"segid": seg.segid}, size=48)
                owners = resp["owners"]
        except (RpcTimeout, RpcRemoteError):
            return
        stale = [h for h, v in owners
                 if h != self.node.hostid and v < seg.version]
        for host in stale:
            try:
                yield from self.rpc.call(host, "seg_sync", {
                    "segid": seg.segid, "version": seg.version,
                    "from": self.node.hostid,
                }, size=48)
            except (RpcTimeout, RpcRemoteError):
                continue
