"""The storage provider daemon.

A provider wears three hats at once:

* **owner** — it stores segments on its native FS (:class:`SegmentStore`)
  and serves client reads/writes (``seg_read`` / ``seg_write``, each a
  piece list answered with per-piece status), shadow creation, and 2PC
  participation;
* **home host** — for SegIDs that consistent-hash to it, it keeps the
  soft-state :class:`LocationTable` and supervises replica consistency and
  replication degree (lazy update propagation, Section 3.6): one
  :class:`LocationHome`, ``provider.home``;
* **self-organizer** — it announces heartbeats, refreshes remote location
  tables (the four event types of Section 3.4.1), and runs the migration
  decision loop of Section 3.7.
"""

from __future__ import annotations

import random
import zlib
from typing import Dict, List, Optional, Tuple

from repro.core.hashing import HashRing
from repro.core.locality import LOCALITY_THRESHOLD, AccessHistory
from repro.core.location import PURGE_AGE_FACTOR, LocationTable
from repro.core.membership import HEARTBEAT_GROUP, MembershipManager
from repro.core.migration import decide_migration
from repro.core.params import SorrentoParams
from repro.core.placement import choose_provider
from repro.core.segment import SegmentError, SegmentStore, StoredSegment
from repro.network.message import RpcRemoteError, RpcTimeout
from repro.runtime import RPC_DEADLINE
from repro.sim import Resource
from repro.storage import DiskIOError, StorageEngine

#: Multicast group for the backup location scheme (Section 3.4.2).
LOCATION_GROUP = "sorrento-loc"

#: Per-location-entry wire size in refresh messages.
LOC_ENTRY_BYTES = 40

# Calibration (DESIGN.md § 1): CPU charged by the user-level daemon, in
# reference-GHz-seconds.
OP_CPU = 3e-4                # per request
BYTE_CPU = 2e-8              # per byte through the daemon


def _meta_bytes(meta: Optional[dict]) -> int:
    """On-disk footprint of an index segment's contents."""
    if not meta:
        return 4096
    layout = meta.get("layout")
    nsegs = len(layout.segments) if layout is not None else 0
    return 4096 + 24 * nsegs + (meta.get("attached_len") or 0)


class LocationHome:
    """The home-host role: the soft-state :class:`LocationTable` for the
    SegIDs hashed to this provider, and the supervision of their
    replicas' consistency and degree (Sections 3.4.1 and 3.6).

    Every change to the table is one method here, and each says what
    follows it.  The only other writer is the preload
    (``SorrentoDeployment._plant``), which schedules nothing by design.
    """

    def __init__(self, node, params: SorrentoParams, rng: random.Random,
                 membership: MembershipManager):
        self.node = node
        self.sim = node.sim
        self.rpc = node.runtime
        self.params = params
        self.rng = rng               # the provider's own stream
        self.membership = membership
        self.table = LocationTable()
        #: (segid, action) -> {host: when sent}: a supervision check reads
        #: one segment's history, not the node's.
        self._repair_recent: Dict[Tuple[int, str], Dict[str, float]] = {}
        self._recheck_pending: set = set()
        self._trim_pending: set = set()

    # ------------------------------------------- the changes, and what follows
    def claim(self, segid: int, owner: str, version: int, degree: int,
              size: int) -> None:
        """An owner announced or refreshed its copy: supervise now."""
        self.table.update(segid, owner, version, degree, size, self.sim.now)
        self.node.defer(0.0, self._supervise, segid)

    def withdraw(self, segid: int, owner: str) -> None:
        """An owner erased its copy (``loc_update {remove}``, or this
        provider's own erase): supervise now."""
        self.table.remove(segid, owner)
        self.node.defer(0.0, self._supervise, segid)

    def drop_owner(self, hostid: str) -> None:
        """An owner died: re-check each segid it held after
        ``repair_delay``, in table order."""
        for segid in self.table.drop_owner(hostid):
            self.node.defer(self.params.repair_delay, self._supervise, segid)

    def purge(self) -> None:
        """Age out the rows no refresh renewed (once per refresh cycle).
        Nothing follows."""
        self.table.purge(self.sim.now,
                         PURGE_AGE_FACTOR * self.params.refresh_cycle)

    def reset(self) -> None:
        """A restart rebuilds the table from refreshes.  Nothing follows:
        the pending checks died with the node, so their sets are emptied
        too (the repair history is kept)."""
        self.table = LocationTable()
        self._recheck_pending.clear()
        self._trim_pending.clear()

    # ------------------------------------------------------- supervision
    def _supervise(self, segid: int) -> None:
        """Home-host check: push syncs to stale owners, restore degree.
        Like every deferred check here it never waits, so it is a plain
        call (:meth:`Node.defer`): a bug in one raises out of ``sim.run``."""
        latest, current, stale = self.table.discrepancies(segid)
        if not current:
            return
        now = self.sim.now
        source = self.rng.choice(current)
        for host in stale:
            if self._repair_throttled(segid, "sync", host, now):
                continue
            self.rpc.send(host, "seg_sync", {
                "segid": segid, "version": latest, "from": source,
            }, size=48)
        owners = set(current) | set(stale)
        rec = self.table.record(segid, current[0])
        degree = rec.degree if rec else 1
        size = rec.size if rec else 0
        age = self.table.age(segid, now)
        if age < self.params.repair_grace:
            # Immature entry: owners may still be refreshing in.  Check
            # again once mature (rather than waiting a full refresh cycle).
            if segid not in self._recheck_pending:
                self._recheck_pending.add(segid)
                self.node.defer(self.params.repair_grace - age + 0.1,
                                self._recheck, segid)
            return
        # Replications already in flight (sent recently, not yet owners).
        pending = self._sent_recently(segid, "repl", now) - owners
        deficit = degree - len(owners) - len(pending)
        if deficit > 0:
            members = self.membership.snapshot()
            exclude = owners | pending
            for _ in range(deficit):
                target = choose_provider(
                    self.rng, members, max(size, 1),
                    self.params.default_alpha, exclude=exclude,
                )
                if target is None:
                    return
                exclude.add(target)
                if self._repair_throttled(segid, "repl", target, now):
                    continue
                self.rpc.send(target, "seg_replicate", {
                    "segid": segid, "version": latest, "from": source,
                }, size=48)
        elif not stale and len(owners) > degree:
            # Apparent excess replicas.  NEVER trim immediately: a
            # migration in flight shows two owners for a moment (target
            # announced, source's removal not yet arrived) and trimming
            # then — while the source erases its copy — loses the
            # segment.  Re-verify after a full cooldown instead.
            if segid not in self._trim_pending:
                self._trim_pending.add(segid)
                self.node.defer(self.params.repair_cooldown,
                                self._verify_trim, segid)

    def _verify_trim(self, segid: int) -> None:
        self._trim_pending.discard(segid)
        latest, current, stale = self.table.discrepancies(segid)
        if stale or not current:
            return
        rec = self.table.record(segid, current[0])
        degree = rec.degree if rec else 1
        if len(current) <= degree:
            return  # the transient resolved itself (migration completed)
        now = self.sim.now
        extra = sorted(current)
        victim = extra[-1]
        if not self._repair_throttled(segid, "trim", victim, now):
            self.rpc.send(victim, "seg_trim", {
                "segid": segid, "version": latest,
            }, size=48)

    def _recheck(self, segid: int) -> None:
        self._recheck_pending.discard(segid)
        self._supervise(segid)

    def _sent_recently(self, segid: int, action: str, now: float) -> set:
        """Hosts ``action`` on ``segid`` was sent to within the cooldown."""
        cutoff = now - self.params.repair_cooldown
        sent = self._repair_recent.get((segid, action), {})
        return {h for h, t in sent.items() if t > cutoff}

    def _repair_throttled(self, segid: int, action: str, host: str,
                          now: float) -> bool:
        """Whether ``action`` on ``segid`` went to ``host`` within the
        cooldown; records it as sent now if not."""
        cutoff = now - self.params.repair_cooldown
        sent = self._repair_recent.setdefault((segid, action), {})
        if sent.get(host, -1e18) > cutoff:
            return True
        sent[host] = now
        if len(self._repair_recent) > 10000:
            self._repair_recent = {
                k: live for k, hosts in self._repair_recent.items()
                if (live := {h: t for h, t in hosts.items() if t > cutoff})
            }
        return False


class StorageProvider:
    """One provider daemon on one cluster node."""

    SERVICES = (
        "seg_create", "seg_create_shadow", "seg_write", "seg_read",
        "seg_prepare", "seg_commit", "seg_abort", "seg_delete",
        "seg_fetch", "seg_sync", "seg_replicate", "seg_trim",
        "loc_lookup", "loc_update", "loc_refresh", "loc_probe",
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
        self.node = node
        self.sim = node.sim
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
        self.ring = HashRing(self.params.ring_vnodes)
        self.history = AccessHistory()
        self.membership = MembershipManager(
            node, interval=self.params.heartbeat_interval, announce=True
        )
        # Membership events move the ring to the new set's shared arrays.
        self.membership.on_join.append(self.ring.add_host)
        self.membership.on_leave.append(self.ring.remove_host)
        self.membership.on_join.append(self._on_join)
        self.membership.on_leave.append(self._on_leave)
        self.home = LocationHome(node, self.params, self.rng, self.membership)
        # "we only allow one active data migration process per node"
        self.transfer_lock = Resource(self.sim, 1)
        #: :meth:`_by_home`'s (member view, store generation, bucketing).
        self._buckets: tuple = (None, -1, {})
        self._locality_recent: Dict[int, float] = {}
        self.stats = {"migrations": 0, "replications": 0, "syncs": 0,
                      "reads": 0, "writes": 0}
        self.rpc = node.runtime
        for svc in self.SERVICES:
            self.rpc.register(svc, getattr(self, "_h_" + svc), replace=True)
        self.rpc.subscribe(LOCATION_GROUP)
        node.daemon(self._refresh_loop, "loc-refresh")
        node.daemon(self._shadow_sweep_loop, "shadow-sweep")
        node.daemon(self._migration_loop, "migration")
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
        self.node.spawn(self._refresh_everything(jitter=1.0), name="rejoin")

    # ----------------------------------------------------- common charging
    def _charge(self, nbytes: int = 0):
        yield self.node.cpu(OP_CPU + nbytes * BYTE_CPU)

    def _home_of(self, segid: int) -> Optional[str]:
        members = self.membership.live_providers()
        if not members:
            return None
        return self.ring.home_host(segid, members)

    # =================================================================
    # Owner-side services (client data path)
    # =================================================================
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
            self._announce_segment(seg)
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
        self.stats["writes"] += 1
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
        length = req["length"]
        seg = self.store.get(segid, version)
        if seg is not None and seg.meta is not None:
            # Index-segment fetch: disk pattern differs from data reads.
            length = yield from self._index_io(
                seg, meta_only=req.get("meta_only", False))
            self.history.record(segid, src, length)
            self.stats["reads"] += 1
            return {"version": version, "data": None, "length": length,
                    "meta": seg.meta}, 64 + length
        data = yield from self.store.read(
            segid, version, req["offset"], length, sequential=sequential)
        yield from self._charge(length)
        self.history.record(segid, src, length)
        self.stats["reads"] += 1
        seg = self.store.get(segid, version)
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
        self._announce_segment(seg)
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
        yield from self._erase(req["segid"])
        return True, 32

    def _h_seg_trim(self, req: dict, src: str):
        """Home host asked us to drop an excess replica."""
        yield from self._charge()
        mine = self.store.latest_committed(req["segid"])
        if mine is None or mine.version != req["version"]:
            return False, 32  # not ours to trim (stale request)
        yield from self._erase(req["segid"])
        return True, 32

    def _erase(self, segid: int):
        """Drop our copy (delete, trim, migration) and tell the home host."""
        yield from self.store.delete_segment(segid)
        self.history.forget(segid)
        self._tell_home({"op": "remove", "segid": segid,
                         "owner": self.node.hostid})

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
        since = mine.version if mine is not None else None
        resp = yield from self.rpc.call(
            req["from"], "seg_fetch",
            {"segid": segid, "version": target_version, "since": since},
            size=64,
        )
        if self.store.get(segid, resp["version"]) is None:
            seg = yield from self._install(segid, resp)
            yield from self.store.consolidate(segid, self.params.keep_versions)
            self._announce_segment(seg)
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
        grant = self.transfer_lock.request()
        yield grant
        try:
            if satisfied():
                return {"already": True, "version": req["version"]}, 48
            resp = yield from self.rpc.call(
                req["from"], "seg_fetch",
                {"segid": segid, "version": req["version"]},
                size=64,
            )
            t0 = self.sim.now
            seg = yield from self._install(segid, resp)
            self._announce_segment(seg)
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

    def _install(self, segid: int, resp: dict):
        """Store a ``seg_fetch`` reply: a diff on our latest version, or
        (no ``regions``) the whole copy."""
        return (yield from self.store.apply_diff(
            segid, resp["version"], resp["size"], resp["regions"],
            data=resp["data"], replication_degree=resp["degree"],
            alpha=resp["alpha"], placement=resp["placement"],
            meta=resp["meta"]))

    # =================================================================
    # Home-host services (data location, Section 3.4)
    # =================================================================
    def _h_loc_lookup(self, req: dict, src: str):
        """Locate a segment's owners; serve small reads inline when local.

        Mirrors Figure 6 step (2): if the home host itself owns the
        segment, it "sends back the data immediately" instead of
        redirecting.
        """
        segid = req["segid"]
        yield from self._charge()
        mine = self.store.latest_committed(segid)
        read = req.get("read")
        table = self.home.table
        latest_known = table.latest_version(segid)
        if mine is not None and read is not None \
                and (latest_known is None or mine.version >= latest_known):
            data = None
            if mine.meta is not None:
                # Index segment: inode + (unless meta-only) attached data.
                length = yield from self._index_io(
                    mine, meta_only=read.get("meta_only", False))
            else:
                offset, length = read["offset"], read["length"]
                length = min(length, max(0, mine.size - offset))
                if length > 0:
                    data = yield from self.store.read(segid, mine.version,
                                                      offset, length)
            self.history.record(segid, src, length)
            resp = {
                "owners": table.lookup(segid) or [(self.node.hostid, mine.version)],
                "inline": {"version": mine.version, "data": data,
                           "length": length, "meta": mine.meta,
                           "size": mine.size},
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

    def _h_loc_update(self, req: dict, src: str) -> None:
        """Eager add/remove of one location entry (segment events)."""
        if req["op"] == "add":
            self.home.claim(req["segid"], req["owner"], req["version"],
                            req["degree"], req["size"])
        else:
            self.home.withdraw(req["segid"], req["owner"])

    def _h_loc_refresh(self, req: dict, src: str):
        """Bulk periodic content refreshing from an owner."""
        yield from self._charge(LOC_ENTRY_BYTES * len(req["entries"]))
        for segid, version, degree, size in req["entries"]:
            self.home.claim(segid, req["owner"], version, degree, size)
        return True, 32

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

    # ------------------------------------------------- announcements
    def _announce_segment(self, seg: StoredSegment) -> None:
        """Segment creation / version advance → tell the home host."""
        self._tell_home({"op": "add", "segid": seg.segid,
                         "owner": self.node.hostid, "version": seg.version,
                         "degree": seg.replication_degree,
                         "size": seg.size})

    def _tell_home(self, req: dict) -> None:
        """One ``loc_update`` to the segment's home host; a home that is
        this provider takes it without a message."""
        home = self._home_of(req["segid"])
        if home == self.node.hostid:
            self._h_loc_update(req, home)
        elif home is not None:
            self.rpc.send(home, "loc_update", req, size=LOC_ENTRY_BYTES)

    # =================================================================
    # Membership events (the four refresh-trigger types, Section 3.4.1)
    # =================================================================
    def _on_join(self, hostid: str) -> None:
        if hostid == self.node.hostid:
            return
        delay = self.rng.random() * self.params.join_refresh_delay_max
        self.node.defer(delay, self._refresh_toward, hostid)

    def _on_leave(self, hostid: str) -> None:
        # (3) Node departure: purge its records; segments it owned may now
        # be under-replicated — recheck after a grace period.
        self.home.drop_owner(hostid)
        # Re-announce local segments whose home host was the dead node.
        self.node.spawn(self._rehome_after_departure(hostid), name="rehome")

    def _rehome_after_departure(self, dead: str):
        members = self.membership.live_providers()
        if not members:
            return
        yield self.sim.timeout(self.rng.random() * 2.0)
        # The view with the dead node goes on a ring of its own: one ring
        # asked about both would switch sets per segment it homed.
        before = sorted(set(members) | {dead})
        old_ring = HashRing(self.params.ring_vnodes)
        by_home: Dict[str, List[int]] = {}
        for seg in self.store.committed_segments():
            if old_ring.home_host(seg.segid, before) != dead:
                continue
            new_home = self.ring.home_host(seg.segid, members)
            by_home.setdefault(new_home, []).append(seg.segid)
        yield from self._send_refreshes(by_home)

    def _refresh_toward(self, hostid: str) -> None:
        members = self.membership.live_providers()
        if hostid not in members:
            return  # departed again before we refreshed
        segids = self._by_home(members).get(hostid)
        if segids:
            # The CPU charge is booked; nobody waits for it.
            self._send_refresh(hostid, self._refresh_entries(segids))

    def _by_home(self, members: List[str]) -> Dict[str, List[int]]:
        """``{home: [segid…]}`` in ``committed_segments()`` order, kept
        while neither the member view (by identity, like the ring's fast
        path) nor the store's committed set has changed: one scan answers
        every join of a formation.  Only segids are kept — what is
        announced about each is read when it is sent."""
        view, generation, buckets = self._buckets
        if view is not members or generation != self.store.generation:
            buckets = {}
            for seg in self.store.committed_segments():
                buckets.setdefault(self.ring.home_host(seg.segid, members),
                                   []).append(seg.segid)
            self._buckets = (members, self.store.generation, buckets)
        return buckets

    def _refresh_entries(self, segids: List[int]) -> List[tuple]:
        return [(seg.segid, seg.version, seg.replication_degree, seg.size)
                for seg in map(self.store.latest_committed, segids)]

    # ------------------------------------------------- periodic loops
    def _refresh_loop(self):
        # Stagger the first cycle so providers do not refresh in lockstep.
        yield self.sim.timeout(self.rng.random() * self.params.refresh_cycle)
        while True:
            yield from self._refresh_everything()
            self.home.purge()
            yield self.sim.timeout(self.params.refresh_cycle)

    def _refresh_everything(self, jitter: float = 0.0):
        if jitter:
            yield self.sim.timeout(self.rng.random() * jitter)
        members = self.membership.live_providers()
        if not members:
            return
        yield from self._send_refreshes(self._by_home(members))

    def _send_refreshes(self, by_home: Dict[str, List[int]]):
        """Announce ``{home: [segid…]}``, every entry as it stands now."""
        for home, entries in [(home, self._refresh_entries(segids))
                              for home, segids in by_home.items()]:
            if home == self.node.hostid:
                for segid, version, degree, size in entries:
                    self.home.claim(segid, self.node.hostid, version, degree,
                                    size)
                continue
            yield self._send_refresh(home, entries)

    def _send_refresh(self, home: str, entries: List[tuple]):
        """One ``loc_refresh`` batch to a remote home; returns its CPU charge."""
        self.rpc.send(home, "loc_refresh", {
            "owner": self.node.hostid, "entries": entries,
        }, size=32 + LOC_ENTRY_BYTES * len(entries))
        return self.node.cpu(OP_CPU * (1 + len(entries) / 64))

    def _shadow_sweep_loop(self):
        while True:
            yield self.sim.timeout(max(5.0, self.params.shadow_ttl / 4))
            for segid, version in self.store.expire_shadows():
                yield from self.store.drop(segid, version)

    # =================================================================
    # Migration (Section 3.7)
    # =================================================================
    def _migration_loop(self):
        yield self.sim.timeout(self.rng.random() * self.params.migration_interval)
        while True:
            try:
                yield from self._migration_round()
            except (RpcTimeout, RpcRemoteError, SegmentError):
                pass
            yield self.sim.timeout(self.params.migration_interval)

    def _migration_round(self):
        members = self.membership.snapshot()
        candidates = [s for s in self.store.committed_segments() if s.size > 0]
        # Locality-driven moves first: they are explicit application policy.
        yield from self._locality_round(members, candidates)
        decision = decide_migration(self.node.hostid, members,
                                    [s for s in candidates
                                     if s.placement != "locality"])
        if decision is None:
            return
        for seg in decision.segments:
            owners = {h for h, _ in self.home.table.lookup(seg.segid)}
            target = choose_provider(
                self.rng, members, seg.size, decision.alpha,
                exclude=owners | {self.node.hostid},
            )
            if target is None:
                continue
            yield from self._migrate_out(seg, target)

    def _locality_round(self, members, candidates):
        now = self.sim.now
        for seg in candidates:
            if seg.placement != "locality":
                continue
            if self._locality_recent.get(seg.segid, -1e18) > now - 2 * self.params.migration_interval:
                continue
            dominant = self.history.dominant_source(
                seg.segid, LOCALITY_THRESHOLD,
                self.params.locality_min_samples,
            )
            if dominant is None or dominant == self.node.hostid:
                continue
            if dominant not in members:
                continue  # traffic source is not a storage provider
            self._locality_recent[seg.segid] = now
            yield from self._migrate_out(seg, dominant)

    def _migrate_out(self, seg: StoredSegment, target: str):
        """Replicate to ``target`` then erase locally (Section 3.7.1:
        migration = new replica elsewhere + erase the local copy)."""
        grant = self.transfer_lock.request()
        yield grant
        try:
            timeout = max(RPC_DEADLINE, seg.size / 1e6)
            try:
                resp = yield from self.rpc.call(
                    target, "seg_replicate", {
                        "segid": seg.segid, "version": seg.version,
                        "from": self.node.hostid,
                    }, size=48, timeout=timeout,
                )
            except (RpcTimeout, RpcRemoteError):
                return False
            if resp.get("already"):
                # The target already held the live tip: nothing moved, so
                # keep the local copy (replica count must not shrink).
                return False
            yield from self._erase(seg.segid)
            self.stats["migrations"] += 1
            return True
        finally:
            self.transfer_lock.release()

    # ------------------------------------------------- eager propagation
    def _eager_push(self, seg: StoredSegment):
        """Synchronous commitment: push the new version to every replica
        before acknowledging (Section 3.6)."""
        home = self._home_of(seg.segid)
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
