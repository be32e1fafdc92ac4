"""NFS v3 baseline: a single kernel-space file server.

Model highlights (why NFS behaves the way Figure 9-12 show):

* Kernel server with tightly-optimized request handling → tiny per-op CPU.
* Metadata updates are journaled asynchronously → create/unlink need no
  synchronous disk I/O.
* Writes are NFSv3 *unstable*: acknowledged from memory, flushed in the
  background.
* Reads hit the server page cache when resident, disk otherwise.  The
  cache is modelled as an LRU of per-file resident prefixes.
* The wire moves data in small chunks (rsize/wsize) through a serialized
  daemon, which is what pins large-I/O throughput near 8 MB/s and
  saturates sessions at several hundred per second.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional

from repro.cluster import ClusterSpec, Node
from repro.network import Fabric
from repro.runtime import MetricsRegistry
from repro.sim import Resource, RngStreams, Simulator

#: NFS transfer size per wire request (Linux 2.4 over UDP commonly 8 KB).
CHUNK = 8 * 1024

#: Server CPU work per request, reference-GHz-seconds.
OP_CPU = 2.0e-4

#: Fixed per-request service time through the (serialized) nfsd path:
#: interrupt, RPC decode, VFS crossing.
SERVICE_SECONDS = 2.0e-4

#: Additional service time per payload byte (copies, checksums).  Sets
#: the large-I/O ceiling: ~8 KB chunks at ~0.92 ms each ≈ 8-10 MB/s.
BYTE_SECONDS = 7e-8

#: Client-side stub work per request.
CLIENT_CPU = 2e-5

#: Fraction of server memory usable as page cache.
CACHE_FRACTION = 0.5


class NFSError(Exception):
    """NFS-side failure (ENOENT and friends)."""
    pass


@dataclass
class NFSHandle:
    """An open NFS file session."""
    path: str
    mode: str
    closed: bool = False


class _PageCache:
    """LRU of per-file resident prefixes (bytes cached from offset 0).

    Random-offset reads into a partially resident file hit iff the offset
    falls inside the resident prefix — which makes the hit rate equal the
    resident fraction, the right aggregate behaviour for random access.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.resident: "OrderedDict[str, int]" = OrderedDict()
        self.used = 0

    def touch(self, path: str, nbytes: int) -> None:
        """Mark a prefix of the file resident (write or read fill)."""
        cur = self.resident.pop(path, 0)
        new = max(cur, nbytes)
        self.resident[path] = new
        self.used += new - cur
        while self.used > self.budget and self.resident:
            victim, size = self.resident.popitem(last=False)
            self.used -= size

    def resident_bytes(self, path: str) -> int:
        """How many leading bytes of the file are cached."""
        return self.resident.get(path, 0)

    def drop(self, path: str) -> None:
        """Evict a file entirely (unlink)."""
        self.used -= self.resident.pop(path, 0)


class NFSServer:
    """The single NFS daemon on one node."""

    def __init__(self, node: Node, params: Optional[dict] = None):
        if node.fs is None:
            raise ValueError("NFS server needs a local disk")
        self.node = node
        self.sim = node.sim
        self.files: Dict[str, int] = {}   # path -> size
        self.cache = _PageCache(int(node.spec.memory * CACHE_FRACTION))
        # nfsd threads serialize on shared kernel structures; model the
        # service path as a single queue.
        self.daemon = Resource(node.sim, capacity=1)
        self.ops = 0
        self.rpc = node.runtime
        for svc in ("nfs_lookup", "nfs_create", "nfs_read", "nfs_write",
                    "nfs_unlink", "nfs_commit"):
            self.rpc.register(svc, getattr(self, "_h_" + svc[4:]),
                              replace=True)
        node.daemon(self._flusher, "nfs-flush")
        self._dirty = 0

    def _serve(self, cpu_work: float, nbytes: int = 0):
        grant = self.daemon.request()
        yield grant
        try:
            self.ops += 1
            yield self.node.cpu(cpu_work)
            yield self.sim.timeout(SERVICE_SECONDS + nbytes * BYTE_SECONDS)
        finally:
            self.daemon.release()

    def _flusher(self):
        """Background write-back of dirty pages."""
        while True:
            yield self.sim.timeout(5.0)
            if self._dirty > 0 and self.node.fs is not None:
                nbytes, self._dirty = self._dirty, 0
                yield self.node.fs.device.io(nbytes, sequential=True)

    # ----------------------------------------------------------- handlers
    def _h_lookup(self, path: str, src: str):
        yield from self._serve(OP_CPU)
        size = self.files.get(path)
        if size is None:
            raise NFSError(f"ENOENT {path}")
        return {"size": size}, 96

    def _h_create(self, path: str, src: str):
        yield from self._serve(OP_CPU)
        if path in self.files:
            return {"size": self.files[path]}, 96
        self.files[path] = 0
        self._dirty += 4096  # journal entry, flushed asynchronously
        return {"size": 0}, 96

    def _h_read(self, req: dict, src: str):
        yield from self._serve(OP_CPU, req["length"])
        path, offset, length = req["path"], req["offset"], req["length"]
        size = self.files.get(path)
        if size is None:
            raise NFSError(f"ENOENT {path}")
        length = min(length, max(0, size - offset))
        if offset + length > self.cache.resident_bytes(path):
            # Page-cache miss: read from disk (sequential within a chunk
            # run; charge positioning once per request).
            yield self.node.fs.device.io(length, sequential=req.get("seq", False))
        return {"length": length}, 32 + length

    def _h_write(self, req: dict, src: str):
        yield from self._serve(OP_CPU, req["length"])
        path = req["path"]
        if path not in self.files:
            raise NFSError(f"ENOENT {path}")
        end = req["offset"] + req["length"]
        self.files[path] = max(self.files[path], end)
        self.cache.touch(path, min(self.files[path], end))
        self._dirty += req["length"]   # unstable write: flushed later
        return {"length": req["length"]}, 64

    def _h_unlink(self, path: str, src: str):
        yield from self._serve(OP_CPU)
        if path not in self.files:
            raise NFSError(f"ENOENT {path}")
        del self.files[path]
        self.cache.drop(path)
        self._dirty += 4096
        return True, 64

    def _h_commit(self, path: str, src: str):
        # NFSv3 COMMIT: our model's flusher owns durability; ack cheaply.
        yield from self._serve(OP_CPU)
        return True, 32


class NFSClient:
    """Client stub: chunked wire ops against the single server."""

    def __init__(self, node: Node, server: str):
        self.node = node
        self.sim = node.sim
        self.server = server
        self.rpc = node.runtime
        self.stats = {"reads": 0, "writes": 0, "opens": 0}

    def _call(self, svc: str, payload, size: int = 64):
        result = yield from self.rpc.call(self.server, svc, payload, size=size)
        return result

    def open(self, path: str, mode: str = "r", create: bool = False, **_kw):
        """LOOKUP (optionally CREATE); returns a handle with the size."""
        self.stats["opens"] += 1
        yield self.node.cpu(CLIENT_CPU)
        try:
            resp = yield from self._call("nfs_lookup", path)
        except Exception:
            if not (create and mode == "w"):
                raise
            resp = yield from self._call("nfs_create", path)
        fh = NFSHandle(path=path, mode=mode)
        fh.size = resp["size"]
        return fh

    def read(self, fh: NFSHandle, offset: int, length: int,
             sequential: bool = False):
        """Chunked wire reads (rsize units) through the single server."""
        self.stats["reads"] += 1
        pos = offset
        end = offset + length
        first = True
        while pos < end:
            n = min(CHUNK, end - pos)
            yield self.node.cpu(CLIENT_CPU)
            yield from self._call("nfs_read", {
                "path": fh.path, "offset": pos, "length": n,
                "seq": sequential or not first,
            }, size=64)
            pos += n
            first = False
        return None

    def write(self, fh: NFSHandle, offset: int, length: int,
              data=None, sequential: bool = False):
        """Chunked unstable writes; durability comes from COMMIT/flusher."""
        self.stats["writes"] += 1
        pos = offset
        end = offset + length
        while pos < end:
            n = min(CHUNK, end - pos)
            yield self.node.cpu(CLIENT_CPU)
            yield from self._call("nfs_write", {
                "path": fh.path, "offset": pos, "length": n,
            }, size=64 + n)
            pos += n
        fh.size = max(getattr(fh, "size", 0), end)

    def close(self, fh: NFSHandle):
        """COMMIT on write handles (NFSv3 close-to-open semantics)."""
        if fh.closed:
            return
        fh.closed = True
        if fh.mode == "w":
            yield from self._call("nfs_commit", fh.path)

    def unlink(self, path: str):
        """REMOVE the file on the server."""
        result = yield from self._call("nfs_unlink", path)
        return result

    def mkdir(self, path: str):
        """Directories are implicit; record a marker entry."""
        yield from self._call("nfs_create", path + "/.dir")

    def atomic_append(self, path: str, length: int, data=None, **kw):
        """NFS has no atomic append; model the plain (racy) append."""
        fh = yield from self.open(path, "w", create=True)
        yield from self.write(fh, getattr(fh, "size", 0), length,
                              sequential=True)
        yield from self.close(fh)


class NFSDeployment:
    """A cluster with one NFS server; mirrors SorrentoDeployment's API."""

    def __init__(self, spec: ClusterSpec, server: Optional[str] = None,
                 seed: int = 0):
        self.spec = spec
        self.sim = Simulator()
        self.rngs = RngStreams(seed)
        self.fabric = Fabric(self.sim, latency=spec.latency)
        self.nodes = {s.name: Node(self.sim, self.fabric, s) for s in spec.nodes}
        self.metrics = MetricsRegistry()
        for node in self.nodes.values():
            node.runtime.configure(registry=self.metrics)
        server = server or spec.storage_nodes[0].name
        self.server_host = server
        self.server = NFSServer(self.nodes[server])
        self.clients = []

    def client_on(self, hostid: str) -> NFSClient:
        """An NFS client stub on the given node."""
        client = NFSClient(self.nodes[hostid], self.server_host)
        self.clients.append(client)
        return client

    def clients_on_compute(self, n: int):
        """n clients spread over the non-server nodes."""
        compute = [s.name for s in self.spec.nodes
                   if s.name != self.server_host]
        return [self.client_on(compute[i % len(compute)]) for i in range(n)]

    def warm_up(self, seconds: float = 0.5) -> None:
        """Idle spin-up (API parity with SorrentoDeployment)."""
        self.sim.run(until=self.sim.now + seconds)

    def run(self, gen, until=None):
        """Drive one client process to completion."""
        return self.sim.run_process(self.sim.process(gen), until=until)

    def preload_file(self, path: str, size: int, **_kw) -> None:
        """Benchmark setup: plant a file on the server without simulating
        the writes (not in the page cache, so reads go to disk)."""
        from repro.storage.filesystem import _File

        self.server.files[path] = size
        fs = self.server.node.fs
        fs.files["nfs:" + path] = _File(size=size, allocated=size)
        fs.used = min(fs.capacity, fs.used + size)
