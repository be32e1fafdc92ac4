"""The namespace server (Sections 3.1 and 3.5).

One daemon per shard of a volume's tree (one shard by default, the
paper's "one namespace server per volume").  It maps pathnames to file
entries — the Sorrento inode: a 128-bit FileID (= the index segment's
SegID), the file's latest version, and timestamps — and arbitrates
version commits.  It deliberately does **not** track where data
segments live; that is the distributed
location scheme's job, which keeps this server small and fast ("a single
namespace server is able to handle 1300 namespace operations per second").

The directory tree lives in the embedded KV store (the paper used
Berkeley DB) with write-ahead logging, group commit, and periodic
checkpoints for recovery.

The tree is partitioned across the volume's shard servers by top-level
directory, over a shard set fixed when the volume is deployed.
:class:`NamespaceShardMap` is the prefix -> shard assignment (a
consistent-hash ring over shard names); every server and every client
router resolves paths with one, so a client always asks the owner.  A
server still refuses a path it does not own (``EWRONGSHARD``) rather
than serve it.  With one shard the map assigns every prefix to it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.core.hashing import HashRing
from repro.core.params import SorrentoParams
from repro.kvstore import KVStore
from repro.network.message import RpcRemoteError, RpcTimeout
from repro.sim import Store

ROOT = "/"

SHARD_VNODES = 16            # vnodes per shard on the prefix ring
OP_CPU = 6e-4                # calibration (DESIGN.md § 1): ~1300 ops/s on
#                              a Cluster A node, reference-GHz-seconds
CHECKPOINT_INTERVAL = 300.0  # seconds between KV-store checkpoints


class NamespaceError(Exception):
    """Client-visible namespace failures (ENOENT, EEXIST, conflict...)."""


@dataclass(slots=True)
class FileEntry:
    """The Sorrento 'inode' kept per file (Section 3.1): the value the
    namespace stores.  Replies carry it as the dict :meth:`to_dict`
    builds, which is what clients hold."""

    path: str
    fileid: int
    version: int = 0          # 0 = created but never committed
    ctime: float = 0.0
    mtime: float = 0.0
    degree: int = 1           # replication degree (per-file, Section 3.6)
    alpha: float = 0.5        # placement favoritism (per-file, Section 3.7)
    mode: str = "linear"      # data organization mode
    versioning: bool = True   # False = application manages consistency
    placement: str = "load"   # "load" | "locality" | "random"
    stripe_count: int = 4     # striped/hybrid segment (group) width
    fixed_size: int = 0       # striped: declared max file size

    def to_dict(self) -> dict:
        """The entry as clients hold it: a dict display, one C-level
        build after the slot loads (every lookup and create reply)."""
        return {"path": self.path, "fileid": self.fileid,
                "version": self.version, "ctime": self.ctime,
                "mtime": self.mtime, "degree": self.degree,
                "alpha": self.alpha, "mode": self.mode,
                "versioning": self.versioning, "placement": self.placement,
                "stripe_count": self.stripe_count,
                "fixed_size": self.fixed_size}


@dataclass
class _CommitGrant:
    fileid: int
    holder: str
    base_version: int
    expires_at: float


@dataclass
class _Lease:
    holder: str
    expires_at: float


def _dir_key(path: str) -> str:
    return "d:" + path


def _file_key(path: str) -> str:
    return "f:" + path


def _stored(key: str, value):
    """A private copy of a shipped ``value`` as the store keeps it under
    ``key``: a file's :class:`FileEntry`, a directory's dict."""
    return replace(value) if key.startswith("f:") else dict(value)


def _parent(path: str) -> str:
    if path == ROOT:
        return ROOT
    head, _, _ = path.rpartition("/")
    return head or ROOT


def shard_prefix(path: str) -> str:
    """The sharding key: the path's top-level directory component.

    A whole top-level subtree lives on one shard, so parent-existence
    checks and directory listings stay shard-local; only the root
    listing fans out across shards.
    """
    return path.strip("/").split("/", 1)[0] or ROOT


def _prefix_point(prefix: str) -> int:
    """Map a shard prefix onto the 128-bit key space the ring hashes."""
    return int.from_bytes(hashlib.sha1(prefix.encode()).digest()[:16], "big")


class NamespaceShardMap:
    """Prefix -> shard assignment for one volume.

    A thin wrapper over :class:`HashRing`: shards are named by their
    primary's hostid and fixed for the map's lifetime.  Every namespace
    RPC asks :meth:`owner_of` on both sides — the client's router and
    the serving shard — so the answers are memoised: the hash and ring
    walk run once per top-level directory.
    """

    def __init__(self, shards):
        self.ring = HashRing(SHARD_VNODES)
        self.shards: List[str] = list(shards)
        self._owners: Dict[str, str] = {}

    def owner_of(self, path: str) -> str:
        # shard_prefix(path), spelled out: this runs twice per namespace
        # RPC, where a call costs what it does.
        prefix = path.strip("/").split("/", 1)[0] or ROOT
        owner = self._owners.get(prefix)
        if owner is None:
            owner = self._owners[prefix] = self.ring.home_host(
                _prefix_point(prefix), self.shards)
        return owner


@dataclass
class _StandbyLink:
    """One WAL-shipping target.  ``interval`` None = hot standby
    (every mutation shipped immediately); a float = scheduled bulk
    batches, the WAN mode used by satellite-tier mirrors."""

    hostid: str
    interval: Optional[float] = None
    buffer: List[dict] = field(default_factory=list)
    shipped_seq: int = 0


class NamespaceServer:
    """RPC daemon: directory tree + version arbitration for one volume."""

    SERVICES = (
        "ns_lookup", "ns_create", "ns_unlink", "ns_mkdir", "ns_rmdir",
        "ns_list", "ns_begin_commit", "ns_complete_commit",
        "ns_abort_commit", "ns_acquire_lease", "ns_release_lease",
    )

    def __init__(self, node, volume: str, params: Optional[SorrentoParams] = None):
        self.node = node
        self.sim = node.sim
        self.volume = volume
        self.params = params or SorrentoParams()
        self.db = KVStore()
        self.db.put(_dir_key(ROOT), {"ctime": self.sim.now})
        self._grants: Dict[int, _CommitGrant] = {}
        self._leases: Dict[int, _Lease] = {}
        self._flush_queue = Store(self.sim)
        self.ops_served = 0
        self.standbys: List[_StandbyLink] = []
        # Until the deployment places it in the volume's map, a server
        # is the only shard of a map of its own and so answers for every
        # path — which is also what a full-tree mirror stays.
        self.shard_name: str = node.hostid
        self.shard_map = NamespaceShardMap([node.hostid])
        self._ship_seq = 0
        self.applied_seq = 0                  # standby side: last seq applied
        self.shipped_batches = 0
        self.shipped_bytes = 0
        self.rpc = node.runtime
        for svc in self.SERVICES:
            self.rpc.register(svc, getattr(self, "_h_" + svc[3:]),
                              replace=True)
        self.rpc.register("nsr_apply", self._h_nsr_apply, replace=True)
        self.rpc.register("nsr_apply_batch", self._h_nsr_apply_batch,
                          replace=True)
        node.daemon(self._flusher_loop, "ns-wal-flush")
        node.daemon(self._checkpoint_loop, "ns-checkpoint")
        node.on_restart.append(self._recover)

    # --------------------------------------------------------- sharding
    def configure_shard(self, shard_map: NamespaceShardMap,
                        shard_name: str) -> None:
        """Make this server a shard (primary or standby) of the volume's
        namespace.  It answers only for paths the map assigns to
        ``shard_name``; anything else is refused."""
        self.shard_map = shard_map
        self.shard_name = shard_name

    def _check_owner(self, path: str) -> None:
        """Refuse a misrouted request instead of serving it from a DB
        that does not hold the path's subtree."""
        if path == ROOT:
            return
        owner = self.shard_map.owner_of(path)
        if owner != self.shard_name:
            raise NamespaceError(f"EWRONGSHARD {path} owner={owner}")

    # ------------------------------------------------- replication (ext.)
    def attach_standby(self, hostid: str,
                       interval: Optional[float] = None) -> None:
        """Ship every mutation to a standby namespace server — the
        replication extension Section 3.1 points at.  Without
        ``interval`` this is the hot-standby mode: each mutation is
        shipped as it commits, and the standby serves lookups/commits if
        the primary dies (volatile grant/lease state is lost; grants
        simply expire).  With ``interval`` mutations are buffered and
        shipped as one bulk ``nsr_apply_batch`` per period — the
        scheduled WAN-replication mode satellite-tier mirrors use."""
        link = _StandbyLink(hostid, interval)
        self.standbys.append(link)
        if interval is not None:
            self.node.daemon(lambda: self._batch_ship_loop(link),
                             f"ns-ship-{hostid}")

    def _put(self, key, value) -> None:
        self.db.put(key, value)
        self._ship("put", key, value)

    def _delete(self, key) -> None:
        self.db.delete(key)
        self._ship("del", key, None)

    def _ship(self, op: str, key, value) -> None:
        if not self.standbys:
            return
        self._ship_seq += 1
        rec = {"seq": self._ship_seq, "op": op, "key": key, "value": value}
        size = 96 + (len(key) if isinstance(key, str) else 16)
        for link in self.standbys:
            if link.interval is None:
                link.shipped_seq = rec["seq"]
                self.rpc.send(link.hostid, "nsr_apply", rec, size=size)
            else:
                link.buffer.append(rec)

    def _batch_ship_loop(self, link: _StandbyLink):
        # Scheduled batches are *called*, not fire-and-forgotten: a WAN
        # partition must not silently lose a shipment, so on timeout the
        # batch goes back to the head of the buffer and the next tick
        # retries (the mirror converges once the link heals).
        while True:
            yield self.sim.timeout(link.interval)
            if not link.buffer:
                continue
            batch, link.buffer = link.buffer, []
            size = 96 + sum(
                64 + (len(r["key"]) if isinstance(r["key"], str) else 16)
                for r in batch)
            try:
                yield from self.rpc.call(link.hostid, "nsr_apply_batch",
                                         batch, size=size)
            except (RpcTimeout, RpcRemoteError):
                link.buffer = batch + link.buffer
                continue
            link.shipped_seq = batch[-1]["seq"]
            self.shipped_batches += 1
            self.shipped_bytes += size

    def replication_lag(self) -> Dict[str, int]:
        """Mutations not yet shipped, per standby link."""
        return {link.hostid: self._ship_seq - link.shipped_seq
                for link in self.standbys}

    def _h_nsr_apply(self, rec: dict, src: str) -> None:
        """Standby side: apply one shipped mutation."""
        if rec["op"] == "put":
            self.db.put(rec["key"], _stored(rec["key"], rec["value"]))
        else:
            self.db.delete(rec["key"])
        self.applied_seq = max(self.applied_seq, rec["seq"])

    def _h_nsr_apply_batch(self, batch: List[dict], src: str) -> None:
        """Mirror side: apply one scheduled bulk shipment."""
        for rec in batch:
            self._h_nsr_apply(rec, src)

    # ------------------------------------------------------------------
    # Durability plumbing: mutations wait for the next WAL group flush,
    # reads only pay CPU (the tree is memory-resident, as with BDB cache).
    # ------------------------------------------------------------------
    def _charge_cpu(self):
        self.ops_served += 1
        yield self.node.cpu(OP_CPU)

    def _durable(self):
        """Wait until the current WAL batch hits the disk (group commit)."""
        ev = self.sim.event("wal-flush")
        self._flush_queue.put(ev)
        yield ev

    def _flusher_loop(self):
        while True:
            first = yield self._flush_queue.get()
            waiters = [first]
            while len(self._flush_queue):
                waiters.append((yield self._flush_queue.get()))
            # One WAL write commits the whole batch; journal appends are
            # synchronous by definition and never pass through a cache.
            yield self.node.fs.journal_io(4096 + 512 * len(waiters))
            for ev in waiters:
                if not ev.triggered:
                    ev.succeed()

    def _checkpoint_loop(self):
        while True:
            yield self.sim.timeout(CHECKPOINT_INTERVAL)
            nbytes = self.db.checkpoint()
            yield self.node.fs.journal_io(max(4096, nbytes), sequential=True)

    # ------------------------------------------------------- handlers
    def _h_lookup(self, path: str, src: str):
        yield from self._charge_cpu()
        self._check_owner(path)
        entry = self.db.get(_file_key(path))
        if entry is None:
            raise NamespaceError(f"ENOENT {path}")
        return entry.to_dict(), 128

    def _h_create(self, req: dict, src: str):
        """Create a file entry; the client supplies the FileID it minted."""
        yield from self._charge_cpu()
        path = req["path"]
        self._check_owner(path)
        if self.db.get(_file_key(path)) is not None:
            raise NamespaceError(f"EEXIST {path}")
        if self.db.get(_dir_key(_parent(path))) is None:
            raise NamespaceError(f"ENOENT parent of {path}")
        entry = FileEntry(
            path=path,
            fileid=req["fileid"],
            ctime=self.sim.now,
            mtime=self.sim.now,
            degree=req.get("degree", self.params.default_degree),
            alpha=req.get("alpha", self.params.default_alpha),
            mode=req.get("mode", "linear"),
            versioning=req.get("versioning", True),
            placement=req.get("placement", "load"),
            stripe_count=req.get("stripe_count", 4),
            fixed_size=req.get("fixed_size", 0),
        )
        self._put(_file_key(path), entry)
        yield from self._durable()
        return entry.to_dict(), 128

    def _h_unlink(self, path: str, src: str):
        yield from self._charge_cpu()
        self._check_owner(path)
        entry = self.db.get(_file_key(path))
        if entry is None:
            raise NamespaceError(f"ENOENT {path}")
        self._delete(_file_key(path))
        self._grants.pop(entry.fileid, None)
        self._leases.pop(entry.fileid, None)
        yield from self._durable()
        return entry.to_dict(), 128

    def _h_mkdir(self, path: str, src: str):
        yield from self._charge_cpu()
        self._check_owner(path)
        if self.db.get(_dir_key(path)) is not None:
            raise NamespaceError(f"EEXIST {path}")
        if self.db.get(_dir_key(_parent(path))) is None:
            raise NamespaceError(f"ENOENT parent of {path}")
        self._put(_dir_key(path), {"ctime": self.sim.now})
        yield from self._durable()
        return True, 32

    def _h_rmdir(self, path: str, src: str):
        yield from self._charge_cpu()
        if path == ROOT:
            raise NamespaceError("cannot remove /")
        self._check_owner(path)
        if self.db.get(_dir_key(path)) is None:
            raise NamespaceError(f"ENOENT {path}")
        if self._list_children(path):
            raise NamespaceError(f"ENOTEMPTY {path}")
        self._delete(_dir_key(path))
        yield from self._durable()
        return True, 32

    def _h_list(self, path: str, src: str):
        yield from self._charge_cpu()
        self._check_owner(path)
        if self.db.get(_dir_key(path)) is None:
            raise NamespaceError(f"ENOENT {path}")
        names = self._list_children(path)
        return names, 64 + 16 * len(names)

    def _list_children(self, path: str) -> List[str]:
        prefix = path if path.endswith("/") else path + "/"
        out = []
        for kind in ("f:", "d:"):
            for key, _ in self.db.prefix_items(kind + prefix):
                rest = key[len(kind) + len(prefix):]
                if rest and "/" not in rest:
                    out.append(rest + ("/" if kind == "d:" else ""))
        return sorted(out)

    # ------------------------------------------------ version arbitration
    def _h_begin_commit(self, req: dict, src: str):
        """Grant the right to commit version base+1 of a file.

        Rejected if the stored version moved past ``base_version`` (another
        writer won: the caller sees a conflict) or if another commit is in
        flight (the caller retries; Figure 6 steps (7)-(9)).
        """
        yield from self._charge_cpu()
        path, base = req["path"], req["base_version"]
        self._check_owner(path)
        entry = self.db.get(_file_key(path))
        if entry is None:
            raise NamespaceError(f"ENOENT {path}")
        fileid = entry.fileid
        grant = self._grants.get(fileid)
        if grant is not None and grant.expires_at > self.sim.now \
                and grant.holder != src:
            return {"status": "busy"}, 48
        if entry.version != base:
            return {"status": "conflict", "current": entry.version}, 48
        lease = self._leases.get(fileid)
        if lease is not None and lease.expires_at > self.sim.now \
                and lease.holder != src:
            return {"status": "lease_held", "holder": lease.holder}, 48
        self._grants[fileid] = _CommitGrant(
            fileid, src, base, self.sim.now + self.params.commit_grant_ttl
        )
        return {"status": "ok"}, 48

    def _h_complete_commit(self, req: dict, src: str):
        yield from self._charge_cpu()
        path, new_version = req["path"], req["new_version"]
        self._check_owner(path)
        entry = self.db.get(_file_key(path))
        if entry is None:
            raise NamespaceError(f"ENOENT {path}")
        grant = self._grants.get(entry.fileid)
        if grant is None or grant.holder != src \
                or grant.expires_at <= self.sim.now:
            raise NamespaceError(f"no commit grant for {path}")
        if new_version != grant.base_version + 1:
            raise NamespaceError(
                f"commit must advance version by one "
                f"({grant.base_version} -> {new_version})"
            )
        entry.version = new_version
        entry.mtime = self.sim.now
        self._put(_file_key(path), entry)
        del self._grants[entry.fileid]
        yield from self._durable()
        return entry.to_dict(), 128

    def _h_abort_commit(self, req: dict, src: str):
        yield from self._charge_cpu()
        entry = self.db.get(_file_key(req["path"]))
        if entry is not None:
            grant = self._grants.get(entry.fileid)
            if grant is not None and grant.holder == src:
                del self._grants[entry.fileid]
        return True, 32

    # --------------------------------------------------------- leases
    def _h_acquire_lease(self, req: dict, src: str):
        """Write-lock lease so cooperating processes avoid commit conflicts."""
        yield from self._charge_cpu()
        self._check_owner(req["path"])
        entry = self.db.get(_file_key(req["path"]))
        if entry is None:
            raise NamespaceError(f"ENOENT {req['path']}")
        fileid = entry.fileid
        lease = self._leases.get(fileid)
        if lease is not None and lease.expires_at > self.sim.now \
                and lease.holder != src:
            return {"status": "held", "holder": lease.holder}, 48
        self._leases[fileid] = _Lease(src, self.sim.now + req.get("duration", 30.0))
        return {"status": "ok"}, 48

    def _h_release_lease(self, req: dict, src: str):
        yield from self._charge_cpu()
        entry = self.db.get(_file_key(req["path"]))
        if entry is not None:
            lease = self._leases.get(entry.fileid)
            if lease is not None and lease.holder == src:
                del self._leases[entry.fileid]
        return True, 32

    # ------------------------------------------------------------ recovery
    def _recover(self) -> None:
        """After a node restart: grants, leases and the WAL waiters
        parked with the dead flusher are gone, and the tree is rebuilt
        from the last checkpoint plus the WAL.  Scheduled-link buffers
        stay: their records are in that WAL."""
        self._grants.clear()
        self._leases.clear()
        self._flush_queue = Store(self.sim)
        self.db.recover()
