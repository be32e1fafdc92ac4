"""Software RAID-0 across member disks.

Cluster B nodes export "a software RAID-0 partition consisting of three
SCSI partitions" (Figure 8).  Requests are split into stripe units and
issued to member drives in parallel, so large transfers approach the sum
of member bandwidths.  A request is one kernel event however many members
serve it.
"""

from __future__ import annotations

from math import inf
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
        stripe fails the whole request (:meth:`io` fails it with the
        first failing member's error)."""
        for disk in self.disks:
            disk.set_fault(fault)

    def clear_fault(self) -> None:
        for disk in self.disks:
            disk.clear_fault()

    @property
    def io_errors(self) -> int:
        return sum(d.io_errors for d in self.disks)

    def io(self, nbytes: int, sequential: bool = False) -> Event:
        """Stripe one request over the members: one event, at the instant
        the last member finishes — or the first failing one fails — and
        reaching the waiters where a join over per-member events did."""
        if nbytes < 0:
            raise ValueError("negative I/O size")
        disks = self.disks
        n = len(disks)
        if n == 1:
            return disks[0].io(nbytes, sequential)
        # Dealt out a stripe unit at a time from member ``_next``: every
        # member gets ``laps`` whole units, the first ``extra`` from
        # ``_next`` one more, the member after those the partial unit (a
        # request of at most one unit is the next member's, whole).
        first = self._next
        units, tail = divmod(nbytes, self.stripe)
        laps, extra = divmod(units, n)
        per_disk = [laps * self.stripe] * n
        for k in range(first, first + extra):
            per_disk[k % n] += self.stripe
        per_disk[(first + units) % n] += tail
        self._next = (first + units + (tail > 0)) % n
        parts = [(disk, count) for disk, count in zip(disks, per_disk)
                 if count > 0]
        if not parts:  # zero-byte op: charge one positioning on one member
            return disks[self._next].io(0, sequential)
        sim = self.sim
        end, failed_at, exc = sim.now, inf, None
        for disk, count in parts:
            done, err = disk.book(count, sequential)
            if err is None:
                if done > end:
                    end = done
            elif done < failed_at:
                failed_at, exc = done, err
        if exc is None:
            return sim.completion(end - sim.now, 1)
        return sim.completion(failed_at - sim.now, 2, exc)

    @property
    def busy_accum(self) -> float:
        return sum(d.busy_accum for d in self.disks) / len(self.disks)

    @property
    def bytes_done(self) -> int:
        return sum(d.bytes_done for d in self.disks)

    def reset(self) -> None:
        """Power-cycle every member (see :meth:`Disk.reset`)."""
        for disk in self.disks:
            disk.reset()
