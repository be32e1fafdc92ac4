"""Rotating-disk service-time model.

Per request: (seek if random) + half-rotation latency + size/transfer_rate,
served FIFO through the drive.  Specs follow the paper's Figure 8; media
transfer rates are period-appropriate estimates for those drive families
(the paper does not list them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.sim import Event, Simulator

MB = 1 << 20
GB = 1 << 30


class DiskIOError(Exception):
    """A request failed at the media (injected by :mod:`repro.faults`).

    Raised out of the completion event, so it surfaces inside whatever
    sim process issued the I/O — a provider handler turns it into an RPC
    remote error for the client."""


@dataclass(frozen=True)
class DiskFaultState:
    """Degradation installed on a drive by the fault plane.

    ``rng`` is a named deterministic stream owned by the fault
    controller; it is only consulted while ``error_rate`` is non-zero,
    so an inactive fault draws nothing and replays stay bit-identical.
    """

    rng: Any = None             # random.Random-compatible stream
    error_rate: float = 0.0     # per-request probability of DiskIOError
    slowdown: float = 1.0       # service-time multiplier (>= 1.0)


@dataclass(frozen=True)
class DiskSpec:
    """Static parameters of a drive model."""

    name: str
    rpm: int
    seek_s: float
    transfer_bps: float  # sustained media rate, bytes/second
    capacity: int        # bytes

    @property
    def half_rotation_s(self) -> float:
        return 0.5 * 60.0 / self.rpm


#: The drive models of Figure 8.  Capacities follow the model numbers
#: (ST373405 = 73 GB, ST336737/ST336704 = 36 GB, DK32EJ-72 = 73 GB,
#: MAN3735 = 73 GB); transfer rates are era-typical sustained rates.
DISK_SPECS = {
    "cheetah-st373405": DiskSpec("cheetah-st373405", 10000, 5.1e-3, 55 * MB, 73 * GB),
    "barracuda-st336737": DiskSpec("barracuda-st336737", 7200, 8.5e-3, 40 * MB, 36 * GB),
    "cheetah-st336704": DiskSpec("cheetah-st336704", 10000, 5.1e-3, 50 * MB, 36 * GB),
    "ultrastar-dk32ej": DiskSpec("ultrastar-dk32ej", 10000, 4.9e-3, 52 * MB, 73 * GB),
    "fujitsu-man3735": DiskSpec("fujitsu-man3735", 10000, 5.0e-3, 52 * MB, 73 * GB),
}


class Disk:
    """A single drive: FIFO queue with positioning + transfer service times.

    Like :class:`~repro.sim.resources.BandwidthPipe`, completion times are
    computed with an O(1) ledger: a new request starts when all earlier
    ones finish.  ``busy_accum`` integrates service time for I/O-wait load
    measurement.
    """

    def __init__(self, sim: Simulator, spec: DiskSpec):
        self.sim = sim
        self.spec = spec
        self._ready_at = 0.0
        self.busy_accum = 0.0
        self.bytes_done = 0
        self.bytes_failed = 0
        self.requests = 0
        self.io_errors = 0
        self.fault: Optional[DiskFaultState] = None

    def reset(self) -> None:
        """Power-cycle the drive: the pending request queue dies with the
        node, so a restarted provider must not inherit its pre-crash
        ``_ready_at`` backlog or busy ledger.  Counters and any installed
        fault survive — the media is the same physical drive."""
        self._ready_at = self.sim.now
        self.busy_accum = 0.0

    # -- fault plane -----------------------------------------------------
    def set_fault(self, fault: DiskFaultState) -> None:
        """Install a degradation (see :mod:`repro.faults`)."""
        self.fault = fault

    def clear_fault(self) -> None:
        self.fault = None

    def service_time(self, nbytes: int, sequential: bool = False) -> float:
        """Time this drive needs for one request *including* any installed
        fault slowdown, so utilization/backlog estimates stay honest while
        a ``DiskFault`` is active."""
        t = nbytes / self.spec.transfer_bps
        if not sequential:
            t += self.spec.seek_s + self.spec.half_rotation_s
        fault = self.fault
        if fault is not None and fault.slowdown != 1.0:
            t *= fault.slowdown
        return t

    def io(self, nbytes: int, sequential: bool = False) -> Event:
        """Queue one request; the event fires at completion (a media
        error one zero-delay slot later, as an error event once did)."""
        done, exc = self.book(nbytes, sequential)
        sim = self.sim
        if exc is None:
            return sim.timeout(done - sim.now)
        return sim.completion(done - sim.now, 1, exc)

    def book(self, nbytes: int, sequential: bool = False
             ) -> Tuple[float, Optional[DiskIOError]]:
        """:meth:`io` without the event: when the request completes, and
        the error it fails with, if any (``Raid0`` books its members)."""
        if nbytes < 0:
            raise ValueError("negative I/O size")
        fault = self.fault
        service = self.service_time(nbytes, sequential)
        start = max(self.sim.now, self._ready_at)
        done = start + service
        self._ready_at = done
        self.busy_accum += service
        self.requests += 1
        if fault is not None and fault.error_rate > 0.0 \
                and fault.rng.random() < fault.error_rate:
            # The drive still spends the service time before erroring out,
            # but the bytes never made it to (or from) the media.
            self.io_errors += 1
            self.bytes_failed += nbytes
            return done, DiskIOError(
                f"{self.spec.name}: I/O error ({nbytes} bytes)")
        self.bytes_done += nbytes
        return done, None
