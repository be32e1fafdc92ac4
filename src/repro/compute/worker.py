"""Per-provider worker daemon: poll the queue, run tasks, report bytes.

A worker is a plain polling loop co-located with a storage provider.
It executes two task kinds through the ordinary client data path (so
caching, vectored reads, and fault handling all apply):

* ``scan``    — read ``[offset, offset+length)`` of the input file and
  charge ``cpu`` seconds (default proportional to bytes scanned);
* ``shuffle`` — a scan followed by writing ``out_size`` bytes to a
  task-unique output path (the shuffle spill).

Byte attribution: before reading, the worker resolves each input piece
to the owner the read will hit and splits the range into *local* bytes
(owner is this very node) and *remote* bytes (pulled over the fabric).
``task_done`` carries the split back to the queue — that, plus the
queue's own pre-staging counter, is the ablation's network-bytes headline.
The split is exact at replication degree 1; with replicas it is the
scheduler-visible expectation (the read may land on another replica).

Workers set ``client.prefer_local`` so that once a segment *is* local
— resident from the start, or pre-staged while the task queued — the
read actually short-circuits to the local copy.
"""

from __future__ import annotations

from repro.core.client.handle import SorrentoError
from repro.network.message import RpcRemoteError, RpcTimeout

#: Default compute charge per input byte (seconds of node CPU).
CPU_PER_BYTE = 2e-10


class Worker:
    """Task-execution daemon bound to one node and one queue host."""

    def __init__(self, node, client, queue_host: str, *,
                 poll: float = 0.2, cpu_per_byte: float = CPU_PER_BYTE):
        self.node = node
        self.sim = node.sim
        self.host = node.hostid
        self.client = client
        self.client.prefer_local = True
        self.rpc = client.rpc
        self.queue_host = queue_host
        self.poll = poll
        self.cpu_per_byte = cpu_per_byte
        self.stats = {"executed": 0, "failed": 0, "local_bytes": 0,
                      "remote_bytes": 0, "out_bytes": 0}
        self.proc = node.spawn(self._loop(),
                               name=f"compute-worker:{self.host}")

    # ------------------------------------------------------------- loop
    def _loop(self):
        while True:
            try:
                resp = yield from self.rpc.call(
                    self.queue_host, "task_next",
                    {"worker": self.host}, size=48)
            except (RpcTimeout, RpcRemoteError):
                yield self.sim.timeout(self.poll)
                continue
            task = resp.get("task")
            if task is None:
                yield self.sim.timeout(self.poll)
                continue
            yield from self._execute(task)

    def _execute(self, task: dict):
        try:
            local, remote, out_bytes = yield from self._run_task(task)
        except (SorrentoError, RpcTimeout, RpcRemoteError) as exc:
            self.stats["failed"] += 1
            try:
                yield from self.rpc.call(
                    self.queue_host, "task_fail",
                    {"task": task["id"], "worker": self.host,
                     "error": str(exc)}, size=96)
            except (RpcTimeout, RpcRemoteError):
                pass
            return
        self.stats["executed"] += 1
        self.stats["local_bytes"] += local
        self.stats["remote_bytes"] += remote
        self.stats["out_bytes"] += out_bytes
        try:
            yield from self.rpc.call(
                self.queue_host, "task_done",
                {"task": task["id"], "worker": self.host,
                 "local_bytes": local, "remote_bytes": remote,
                 "out_bytes": out_bytes}, size=96)
        except (RpcTimeout, RpcRemoteError):
            pass  # lease expiry re-queues it; task_done dedups by id

    # ------------------------------------------------------------- tasks
    def _run_task(self, task: dict):
        fh = yield from self.client.open(task["path"], "r")
        try:
            offset = task.get("offset") or 0
            length = task.get("length")
            if length is None:
                length = max(0, fh.size - offset)
            length = min(length, max(0, fh.size - offset))
            pieces = fh.layout.locate(offset, length)
            owners = yield from self.client._resolve_owners(fh, pieces)
            local = remote = 0
            for seg_idx, _seg_off, n in pieces:
                owner, _version = owners[seg_idx]
                if owner == self.host:
                    local += n
                else:
                    remote += n
            if length > 0:
                yield from self.client.read(fh, offset, length,
                                            sequential=True)
        finally:
            yield from self.client.close(fh)
        cpu = task.get("cpu") or length * self.cpu_per_byte
        if cpu > 0:
            yield self.node.cpu(cpu)
        out_bytes = 0
        if task.get("kind") == "shuffle" and task.get("out"):
            out_bytes = task.get("out_size") or max(1, length // 4)
            ofh = yield from self.client.open(task["out"], "w", create=True)
            try:
                yield from self.client.write(ofh, 0, out_bytes)
            finally:
                yield from self.client.close(ofh)
        return local, remote, out_bytes
