"""The simulated cluster node: CPU, storage device, NIC, and load monitor.

A node is the unit of failure.  ``crash()`` kills every process spawned
and voids every call deferred on the node and silences its NIC; the file
system contents survive (the paper: a repaired machine "can be directly
connected to the network without the need to reformat the partitions").
``restart()`` is the one way back up: it respawns every long-lived loop
registered with :meth:`Node.daemon` (the load monitor first), then runs
the ``on_restart`` hooks through which each daemon's owner rebuilds its
volatile state.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.cluster.spec import NodeSpec
from repro.network.switch import Fabric, Host
from repro.runtime import ServiceRuntime
from repro.sim import BandwidthPipe, Event, Process, Simulator
from repro.storage import DISK_SPECS, Disk, LocalFS, Raid0

#: Load-sampling interval (seconds).
SAMPLE_INTERVAL = 1.0

#: EWMA weight for new samples (the paper specifies EWMA for I/O wait).
EWMA_ALPHA = 0.3


class Node(Host):
    """A cluster node: CPU pipe + optional local FS + RPC runtime."""

    def __init__(self, sim: Simulator, fabric: Fabric, spec: NodeSpec,
                 dormant: bool = False):
        super().__init__(sim, spec.name, rate=spec.nic_rate)
        self.spec = spec
        self.fabric = fabric
        # Dormant shells exist so every partition worker builds the full
        # cluster identically (same construction order, same named RNG
        # streams) while only its own partition's daemons actually run:
        # spawn() drops the generator, the load monitor's included.
        # The node stays attached and alive — messages addressed to it are
        # diverted to the owning partition by the fabric's transit hook,
        # never delivered here.
        self.dormant = dormant
        fabric.attach(self)
        # The node's one RPC object; it survives crash()/restart()
        # (services stay registered).
        self.runtime = ServiceRuntime(sim, fabric, self)
        # CPU: a FIFO pipe whose "bytes" are reference-GHz-seconds of work.
        self.cpu_pipe = BandwidthPipe(sim, rate=spec.cpus * spec.cpu_ghz)
        # Storage device + local FS, if this node exports storage.
        self.device = None
        self.fs: Optional[LocalFS] = None
        if spec.disks:
            disks = [Disk(sim, DISK_SPECS[d]) for d in spec.disks]
            self.device = disks[0] if len(disks) == 1 else Raid0(sim, disks)
            self.fs = LocalFS(sim, self.device,
                              capacity=spec.export_capacity or None)
        # Load bookkeeping.
        self.cpu_util = 0.0
        self.io_wait = 0.0
        self._procs: List[Process] = []
        self._prune_at = 64
        self._incarnation = 0       # crashes so far; stamps deferred calls
        self._last_cpu_bytes = 0
        self._last_disk_busy = 0.0
        self._daemons: List[Tuple[Callable, str]] = []
        self.on_restart: List[Callable[[], None]] = []
        self.daemon(self._monitor_loop, "loadmon")

    # -- CPU ------------------------------------------------------------
    def cpu(self, work_s: float) -> Event:
        """Queue ``work_s`` reference-GHz-seconds of CPU work."""
        return self.cpu_pipe.transfer(work_s)

    # -- process management ----------------------------------------------
    def spawn(self, gen, name: str = "") -> Optional[Process]:
        """Run a process that dies with the node (no-op when dormant)."""
        if self.dormant:
            gen.close()
            return None
        proc = self.sim.process(gen, name=f"{self.hostid}:{name}")
        self._procs.append(proc)
        if len(self._procs) >= self._prune_at:
            # Amortized prune: rescan only once the list has doubled past
            # the survivors, so steady-state spawns cost O(1) instead of
            # an is_alive sweep each time the list exceeds a fixed cap.
            self._procs = [p for p in self._procs if p.is_alive]
            self._prune_at = max(64, 2 * len(self._procs))
        return proc

    def daemon(self, loop: Callable, name: str) -> None:
        """Run ``loop()`` now and again after every :meth:`restart` —
        for the loops a service runs for life."""
        self._daemons.append((loop, name))
        self.spawn(loop(), name)

    def defer(self, delay: float, fn, arg) -> None:
        """The callback twin of :meth:`spawn`, for work that never waits:
        ``fn(arg)`` after ``delay`` seconds (0: where a process spawned
        now would start) unless the node crashes first — a restart does
        not revive it.  A no-op when dormant."""
        if self.dormant:
            return
        if delay > 0:
            self.sim.call_later(delay, self._deferred, (fn, arg),
                                self._incarnation)
        else:
            self.sim.call_soon(self._deferred, (fn, arg), self._incarnation)

    def _deferred(self, call, incarnation: int) -> None:
        if incarnation == self._incarnation:
            call[0](call[1])

    def _monitor_loop(self):
        while self.alive:
            yield self.sim.timeout(SAMPLE_INTERVAL)
            cpu_bytes = self.cpu_pipe.bytes_transferred
            cpu_inst = min(1.0, (cpu_bytes - self._last_cpu_bytes)
                           / (self.cpu_pipe.rate * SAMPLE_INTERVAL))
            self._last_cpu_bytes = cpu_bytes
            io_inst = 0.0
            if self.device is not None:
                busy = self.device.busy_accum
                io_inst = min(1.0, (busy - self._last_disk_busy) / SAMPLE_INTERVAL)
                self._last_disk_busy = busy
            self.cpu_util = EWMA_ALPHA * cpu_inst + (1 - EWMA_ALPHA) * self.cpu_util
            self.io_wait = EWMA_ALPHA * io_inst + (1 - EWMA_ALPHA) * self.io_wait

    # -- load reporting ---------------------------------------------------
    @property
    def load(self) -> float:
        """Combined CPU + I/O-wait load in [0, 1] (the paper's ``l``)."""
        return min(1.0, self.cpu_util + self.io_wait)

    @property
    def storage_utilization(self) -> float:
        return self.fs.utilization if self.fs is not None else 0.0

    @property
    def storage_available(self) -> int:
        return self.fs.available if self.fs is not None else 0

    # -- failure injection --------------------------------------------
    def set_disk_fault(self, fault) -> None:
        """Degrade this node's storage device (see :mod:`repro.faults`);
        ``fault`` is a :class:`~repro.storage.disk.DiskFaultState`."""
        if self.device is None:
            raise ValueError(f"{self.hostid} exports no storage device")
        self.device.set_fault(fault)

    def clear_disk_fault(self) -> None:
        """Restore nominal disk service (no-op without a device)."""
        if self.device is not None:
            self.device.clear_fault()

    def crash(self, wipe: bool = False) -> None:
        """Fail the node: NIC silent, all node processes interrupted.

        Disk contents survive unless ``wipe=True`` (disk replacement).
        """
        if not self.alive:
            return
        self.alive = False
        self._incarnation += 1
        for proc in self._procs:
            if proc.is_alive:
                proc.interrupt(cause=f"{self.hostid} crashed")
        self._procs.clear()
        self._prune_at = 64
        if self.fs is not None and self.fs.engine is not None:
            # Power loss: the page cache dies with the node; dirty pages
            # (and the files they belonged to) are recorded as lost for
            # the provider's restart path to reconcile.
            self.fs.engine.on_crash()
        if wipe and self.fs is not None:
            self.fs.files.clear()
            self.fs.used = 0

    def restart(self) -> None:
        """Bring the node back up: its daemons respawn in registration
        order, then the ``on_restart`` hooks run in theirs."""
        if self.alive:
            return
        self.alive = True
        self.cpu_util = 0.0
        self.io_wait = 0.0
        self._last_cpu_bytes = self.cpu_pipe.bytes_transferred
        if self.device is not None:
            # Power-cycle the drive before sampling its busy ledger: the
            # pre-crash request backlog must not be inherited (and the
            # ledger reset must not make monitor deltas negative).
            self.device.reset()
            self._last_disk_busy = self.device.busy_accum
        for loop, name in self._daemons:
            self.spawn(loop(), name)
        for hook in self.on_restart:
            hook()
