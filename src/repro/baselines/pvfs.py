"""PVFS baseline: metadata manager + user-level I/O daemons.

Architecture per Carns et al. [13] and the paper's observations:

* One **mgr** (metadata server).  Every file's metadata lives in a small
  file on the mgr's local FS — "representing each inode using a small
  file" is exactly what the paper credits for Sorrento's small-file win
  and PVFS's 64-sessions/s saturation.  Creates hit the mgr disk
  synchronously; lookups read the inode file (2 positioning I/Os).
* N **iods** (I/O daemons).  File data stripes round-robin across all
  iods in 64 KB units; clients talk to iods directly, so large I/O
  scales with the number of nodes until the Fast Ethernet links saturate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cluster import ClusterSpec, Node
from repro.network import Fabric
from repro.runtime import MetricsRegistry
from repro.sim import RngStreams, Simulator, gather

#: PVFS default stripe unit.
STRIPE = 64 * 1024

#: mgr/iod per-request CPU (user-level daemons), reference-GHz-seconds.
OP_CPU = 3e-4

#: Client stub CPU per request.
CLIENT_CPU = 5e-5

#: Serial per-iod contact overhead during file creation (connection setup
#: and stripe-file handshake), seconds.
IOD_CONTACT = 2.5e-3


class PVFSError(Exception):
    """PVFS-side failure (ENOENT and friends)."""
    pass


@dataclass
class PVFSHandle:
    """An open PVFS file session."""
    path: str
    mode: str
    size: int = 0
    closed: bool = False


class PVFSManager:
    """The metadata server."""

    def __init__(self, node: Node, iods: List[str]):
        if node.fs is None:
            raise ValueError("PVFS mgr needs a local disk")
        self.node = node
        self.sim = node.sim
        self.iods = iods
        self.meta: Dict[str, dict] = {}
        self.ops = 0
        self.rpc = node.runtime
        for svc in ("pvfs_lookup", "pvfs_create", "pvfs_unlink",
                    "pvfs_setsize"):
            self.rpc.register(svc, getattr(self, "_h_" + svc[5:]),
                              replace=True)

    def _h_lookup(self, path: str, src: str):
        self.ops += 1
        yield self.node.cpu(OP_CPU)
        ent = self.meta.get(path)
        if ent is None:
            # Failed lookup still searches the directory on disk.
            yield self.node.fs.device.io(4096)
            raise PVFSError(f"ENOENT {path}")
        # dbpf: directory entry + inode file, two positioned reads.
        yield self.node.fs.device.io(4096)
        yield self.node.fs.device.io(4096)
        return dict(ent), 128

    def _h_create(self, path: str, src: str):
        self.ops += 1
        yield self.node.cpu(OP_CPU)
        if path in self.meta:
            return dict(self.meta[path]), 128
        # One synchronous inode-file write (this serializes the mgr disk
        # and produces the ~64-sessions/s ceiling of Figure 10).
        yield self.node.fs.device.io(4096)
        # Contact every iod to create its stripe file: serial handshakes,
        # parallel iod-side creations.
        for _ in self.iods:
            yield self.sim.timeout(IOD_CONTACT)

        def create_on(iod):
            yield from self.rpc.call(iod, "iod_create", path, size=96)

        yield from gather(self.sim, [create_on(i) for i in self.iods])
        self.meta[path] = {"size": 0, "niods": len(self.iods)}
        return dict(self.meta[path]), 128

    def _h_setsize(self, req: dict, src: str):
        """Close-time bookkeeping: open-count decrement + size update.

        The mgr persists it (one positioned write) — every session's
        close crosses the mgr disk, a big part of PVFS's small-op cost.
        """
        self.ops += 1
        yield self.node.cpu(OP_CPU)
        ent = self.meta.get(req["path"])
        if ent is not None and req["size"] > ent["size"]:
            ent["size"] = req["size"]
        yield self.node.fs.device.io(4096)
        return True, 48

    def _h_unlink(self, path: str, src: str):
        self.ops += 1
        yield self.node.cpu(OP_CPU)
        if path not in self.meta:
            raise PVFSError(f"ENOENT {path}")
        del self.meta[path]
        yield self.node.fs.device.io(4096)
        # iod stripe files are removed asynchronously (fast unlink acks,
        # Figure 9's PVFS unlink < its create).
        for iod in self.iods:
            yield self.sim.timeout(IOD_CONTACT / 2)
            self.rpc.send(iod, "iod_unlink", path, size=64)
        return True, 64


class PVFSIod:
    """One I/O daemon owning a stripe of every file."""

    def __init__(self, node: Node):
        if node.fs is None:
            raise ValueError("PVFS iod needs a local disk")
        self.node = node
        self.sim = node.sim
        self.rpc = node.runtime
        self.rpc.register("iod_create", self._h_create, replace=True)
        self.rpc.register("iod_unlink", self._h_unlink, replace=True)
        self.rpc.register("iod_read", self._h_read, replace=True)
        self.rpc.register("iod_write", self._h_write, replace=True)

    def _fname(self, path: str) -> str:
        return "pvfs:" + path

    def _h_create(self, path: str, src: str):
        yield self.node.cpu(OP_CPU)
        if not self.node.fs.exists(self._fname(path)):
            yield from self.node.fs.create(self._fname(path))
        return True, 48

    def _h_unlink(self, path: str, src: str):
        yield self.node.cpu(OP_CPU)
        if self.node.fs.exists(self._fname(path)):
            yield from self.node.fs.unlink(self._fname(path))

    def _h_read(self, req: dict, src: str):
        yield self.node.cpu(OP_CPU + req["length"] * 2e-8)
        name = self._fname(req["path"])
        if not self.node.fs.exists(name):
            raise PVFSError(f"ENOENT stripe {req['path']}")
        # dbpf attribute fetch precedes the data read; small files pay an
        # extra extent lookup (dbpf b-tree descent not yet cached).
        yield self.node.fs.device.io(4096)
        if self.node.fs.size_of(name) < (1 << 20):
            yield self.node.fs.device.io(4096)
        n = min(req["length"], self.node.fs.size_of(name))
        if n > 0:
            yield from self.node.fs.read(name, 0, n,
                                         sequential=req.get("seq", False))
        return {"length": n}, 32 + req["length"]

    def _h_write(self, req: dict, src: str):
        yield self.node.cpu(OP_CPU + req["length"] * 2e-8)
        name = self._fname(req["path"])
        if not self.node.fs.exists(name):
            yield from self.node.fs.create(name)
        # dbpf attribute update (+ extent allocation for small files).
        yield self.node.fs.device.io(4096)
        if self.node.fs.size_of(name) < (1 << 20):
            yield self.node.fs.device.io(4096)
        offset = min(req["local_offset"], self.node.fs.size_of(name))
        yield from self.node.fs.write(name, offset, req["length"],
                                      sequential=req.get("seq", False))
        return {"length": req["length"]}, 64


class PVFSClient:
    """Client library (the paper modified apps to call it directly)."""

    def __init__(self, node: Node, mgr: str, iods: List[str]):
        self.node = node
        self.sim = node.sim
        self.mgr = mgr
        self.iods = iods
        self.rpc = node.runtime
        self.stats = {"reads": 0, "writes": 0, "opens": 0}

    def _call(self, host, svc, payload, size=64):
        result = yield from self.rpc.call(host, svc, payload, size=size)
        return result

    # ------------------------------------------------------------- session
    def open(self, path: str, mode: str = "r", create: bool = False, **_kw):
        """mgr lookup (optionally create with per-iod stripe files)."""
        self.stats["opens"] += 1
        yield self.node.cpu(CLIENT_CPU)
        try:
            ent = yield from self._call(self.mgr, "pvfs_lookup", path)
        except Exception:
            if not (create and mode == "w"):
                raise
            ent = yield from self._call(self.mgr, "pvfs_create", path)
        fh = PVFSHandle(path=path, mode=mode, size=ent["size"])
        return fh

    def _per_iod(self, offset: int, length: int) -> Dict[int, int]:
        """Bytes of [offset, offset+length) landing on each iod index."""
        out: Dict[int, int] = {}
        pos, end = offset, offset + length
        while pos < end:
            block = pos // STRIPE
            take = min(STRIPE - pos % STRIPE, end - pos)
            idx = block % len(self.iods)
            out[idx] = out.get(idx, 0) + take
            pos += take
        return out

    def read(self, fh: PVFSHandle, offset: int, length: int,
             sequential: bool = False):
        """Striped read: every touched iod serves its share in parallel."""
        self.stats["reads"] += 1
        yield self.node.cpu(CLIENT_CPU)
        parts = self._per_iod(offset, length)

        def read_iod(idx, nbytes):
            yield from self._call(self.iods[idx], "iod_read", {
                "path": fh.path, "length": nbytes, "seq": sequential,
            }, size=64)

        yield from gather(self.sim, [read_iod(i, n) for i, n in parts.items()])
        return None

    def write(self, fh: PVFSHandle, offset: int, length: int,
              data=None, sequential: bool = False):
        """Striped write across the iods."""
        self.stats["writes"] += 1
        yield self.node.cpu(CLIENT_CPU)
        parts = self._per_iod(offset, length)

        def write_iod(idx, nbytes):
            yield from self._call(self.iods[idx], "iod_write", {
                "path": fh.path, "length": nbytes,
                "local_offset": offset // max(1, len(self.iods)),
                "seq": sequential,
            }, size=64 + nbytes)

        yield from gather(self.sim, [write_iod(i, n) for i, n in parts.items()])
        fh.size = max(fh.size, offset + length)

    def close(self, fh: PVFSHandle):
        """Report size/open-count to the mgr (one positioned write)."""
        if fh.closed:
            return
        fh.closed = True
        # Every close reports back to the mgr (open-count tracking).
        yield from self._call(self.mgr, "pvfs_setsize",
                              {"path": fh.path, "size": fh.size}, size=64)

    def unlink(self, path: str):
        """mgr removes the inode file; stripe cleanup is asynchronous."""
        result = yield from self._call(self.mgr, "pvfs_unlink", path)
        return result

    def mkdir(self, path: str):
        """Directories are implicit; record a marker entry."""
        yield from self._call(self.mgr, "pvfs_create", path + "/.dir")


class PVFSDeployment:
    """PVFS-n: mgr + n iods; mirrors SorrentoDeployment's surface."""

    def __init__(self, spec: ClusterSpec, n_iods: Optional[int] = None,
                 seed: int = 0):
        self.spec = spec
        self.sim = Simulator()
        self.rngs = RngStreams(seed)
        self.fabric = Fabric(self.sim, latency=spec.latency)
        self.nodes = {s.name: Node(self.sim, self.fabric, s) for s in spec.nodes}
        self.metrics = MetricsRegistry()
        for node in self.nodes.values():
            node.runtime.configure(registry=self.metrics)
        storage = [s.name for s in spec.storage_nodes]
        n_iods = n_iods if n_iods is not None else len(storage) - 1
        self.mgr_host = storage[0]
        self.iod_hosts = storage[1:1 + n_iods] if len(storage) > n_iods \
            else storage[:n_iods]
        if not self.iod_hosts:
            raise ValueError("PVFS needs at least one iod")
        self.iods = [PVFSIod(self.nodes[h]) for h in self.iod_hosts]
        self.mgr = PVFSManager(self.nodes[self.mgr_host], self.iod_hosts)
        self.clients = []

    def client_on(self, hostid: str) -> PVFSClient:
        """A PVFS client stub on the given node."""
        client = PVFSClient(self.nodes[hostid], self.mgr_host, self.iod_hosts)
        self.clients.append(client)
        return client

    def clients_on_compute(self, n: int):
        """n clients spread over nodes not used by mgr/iods."""
        used = {self.mgr_host, *self.iod_hosts}
        compute = [s.name for s in self.spec.nodes if s.name not in used]
        if not compute:
            compute = self.iod_hosts
        return [self.client_on(compute[i % len(compute)]) for i in range(n)]

    def warm_up(self, seconds: float = 0.5) -> None:
        """Idle spin-up (API parity with SorrentoDeployment)."""
        self.sim.run(until=self.sim.now + seconds)

    def run(self, gen, until=None):
        """Drive one client process to completion."""
        return self.sim.run_process(self.sim.process(gen), until=until)

    def preload_file(self, path: str, size: int, **_kw) -> None:
        """Benchmark setup: plant a striped file without simulating writes."""
        from repro.storage.filesystem import _File

        self.mgr.meta[path] = {"size": size, "niods": len(self.iod_hosts)}
        per = -(-size // len(self.iod_hosts))
        for iod in self.iods:
            iod.node.fs.files["pvfs:" + path] = _File("pvfs:" + path, per, per)
            iod.node.fs.used = min(iod.node.fs.capacity,
                                   iod.node.fs.used + per)
