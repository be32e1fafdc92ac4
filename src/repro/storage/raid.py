"""Software RAID-0 across member disks.

Cluster B nodes export "a software RAID-0 partition consisting of three
SCSI partitions" (Figure 8).  Requests are split into stripe units and
issued to member drives in parallel, so large transfers approach the sum
of member bandwidths.
"""

from __future__ import annotations

from typing import List

from repro.sim import Event, Simulator
from repro.storage.disk import Disk, DiskFaultState

DEFAULT_STRIPE = 64 * 1024


class Raid0:
    """A RAID-0 volume over one or more :class:`Disk` members."""

    def __init__(self, sim: Simulator, disks: List[Disk], stripe: int = DEFAULT_STRIPE):
        if not disks:
            raise ValueError("RAID-0 needs at least one member disk")
        self.sim = sim
        self.disks = list(disks)
        self.stripe = stripe
        self._next = 0

    @property
    def capacity(self) -> int:
        # RAID-0 capacity = members x smallest member.
        return len(self.disks) * min(d.spec.capacity for d in self.disks)

    # -- fault plane -----------------------------------------------------
    def set_fault(self, fault: DiskFaultState) -> None:
        """Degrade every member; RAID-0 has no redundancy, so one bad
        stripe fails the whole request (AllOf propagates the error)."""
        for disk in self.disks:
            disk.set_fault(fault)

    def clear_fault(self) -> None:
        for disk in self.disks:
            disk.clear_fault()

    @property
    def io_errors(self) -> int:
        return sum(d.io_errors for d in self.disks)

    def io(self, nbytes: int, sequential: bool = False) -> Event:
        """Stripe one request over the members; fires when all parts land."""
        if nbytes < 0:
            raise ValueError("negative I/O size")
        if len(self.disks) == 1:
            return self.disks[0].io(nbytes, sequential)
        if 0 < nbytes <= self.stripe:
            # One stripe unit (every journal append, most small-file
            # I/O): the whole request is the next member's.  Still
            # wrapped like the striped case, so completion takes the same
            # hop through the kernel whatever the request size.
            i = self._next
            self._next = (i + 1) % len(self.disks)
            return self.sim.all_of((self.disks[i].io(nbytes, sequential),))
        # Dealt out a stripe unit at a time from member ``_next``: every
        # member gets ``laps`` whole units, the first ``extra`` from
        # ``_next`` one more, the member after those the partial unit.
        n, first = len(self.disks), self._next
        units, tail = divmod(nbytes, self.stripe)
        laps, extra = divmod(units, n)
        per_disk = [laps * self.stripe] * n
        for k in range(first, first + extra):
            per_disk[k % n] += self.stripe
        per_disk[(first + units) % n] += tail
        self._next = (first + units + (tail > 0)) % n
        parts = [
            disk.io(count, sequential)
            for disk, count in zip(self.disks, per_disk)
            if count > 0
        ]
        if not parts:  # zero-byte op: charge one positioning on one member
            return self.disks[self._next].io(0, sequential)
        return self.sim.all_of(parts)

    def service_time(self, nbytes: int, sequential: bool = False) -> float:
        """Unloaded service-time estimate (slowest member's share)."""
        share = nbytes / len(self.disks)
        return max(d.service_time(int(share), sequential) for d in self.disks)

    @property
    def busy_accum(self) -> float:
        return sum(d.busy_accum for d in self.disks) / len(self.disks)

    @property
    def backlog_seconds(self) -> float:
        return max(d.backlog_seconds for d in self.disks)

    @property
    def bytes_done(self) -> int:
        return sum(d.bytes_done for d in self.disks)

    @property
    def bytes_failed(self) -> int:
        return sum(d.bytes_failed for d in self.disks)

    def reset(self) -> None:
        """Power-cycle every member (see :meth:`Disk.reset`)."""
        for disk in self.disks:
            disk.reset()
