"""Declarative fault schedules.

A :class:`FaultPlan` is an ordered schedule of typed fault events, each
pinned to a virtual-time offset (relative to the moment the controlling
:class:`~repro.faults.controller.FaultController` starts).  Plans are
plain data: they can be built up front, printed, compared, and replayed —
the same plan on the same seed produces a bit-identical run.

Event types map one-to-one onto the substrate hooks:

========================  ==================================================
:class:`NodeCrash`        ``Node.crash`` (fail-stop; NIC silent, procs die)
:class:`NodeRestart`      ``Node.restart`` (every daemon on the node respawns)
:class:`Partition`        ``Fabric.partition`` (symmetric or one-way)
:class:`Heal`             ``Fabric.heal``
:class:`LinkDegrade`      ``Fabric.degrade_link`` (latency/jitter/drop/dup/
                          bandwidth cap on a directed link, ``"*"`` wildcards)
:class:`LinkRestore`      ``Fabric.restore_link``
:class:`DiskFault`        ``Node.set_disk_fault`` (IO error rate, service-
                          time inflation)
:class:`DiskHeal`         ``Node.clear_disk_fault``
========================  ==================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple


@dataclass(frozen=True)
class NodeCrash:
    """Fail-stop a node (disk contents survive unless ``wipe``)."""

    host: str
    wipe: bool = False
    kind = "node_crash"


@dataclass(frozen=True)
class NodeRestart:
    """Bring a crashed node back up, with every daemon it ran."""

    host: str
    kind = "node_restart"


@dataclass(frozen=True)
class Partition:
    """Block the switch between two host sets.

    ``side_b=None`` isolates ``side_a`` from every other attached host.
    ``symmetric=False`` blocks only the ``side_a -> side_b`` direction —
    the asymmetric ("I can hear you but you can't hear me") case.
    """

    side_a: Tuple[str, ...]
    side_b: Optional[Tuple[str, ...]] = None
    symmetric: bool = True
    kind = "partition"


@dataclass(frozen=True)
class Heal:
    """Lift a partition; with no sides given, lift every one."""

    side_a: Optional[Tuple[str, ...]] = None
    side_b: Optional[Tuple[str, ...]] = None
    kind = "heal"


@dataclass(frozen=True)
class LinkDegrade:
    """Degrade the directed ``src -> dst`` link (``"*"`` wildcards)."""

    src: str = "*"
    dst: str = "*"
    extra_latency: float = 0.0      # deterministic added delay (s)
    jitter: float = 0.0             # uniform [0, jitter) extra delay (s)
    drop: float = 0.0               # per-message drop probability
    duplicate: float = 0.0          # per-message duplication probability
    bandwidth_cap: Optional[float] = None  # bytes/s
    kind = "link_degrade"


@dataclass(frozen=True)
class LinkRestore:
    """Remove the degradation on the directed ``src -> dst`` link."""

    src: str = "*"
    dst: str = "*"
    kind = "link_restore"


@dataclass(frozen=True)
class DiskFault:
    """Degrade a node's storage device."""

    host: str
    error_rate: float = 0.0         # per-request DiskIOError probability
    slowdown: float = 1.0           # service-time multiplier
    kind = "disk_fault"


@dataclass(frozen=True)
class DiskHeal:
    """Restore nominal disk service on a node."""

    host: str
    kind = "disk_heal"


FaultEvent = (NodeCrash, NodeRestart, Partition, Heal,
              LinkDegrade, LinkRestore, DiskFault, DiskHeal)


@dataclass
class FaultPlan:
    """A schedule of ``(at_seconds, event)`` pairs.

    Offsets are relative to controller start, so the same plan can run
    against a warmed-up deployment at any absolute time.  Build fluently::

        plan = (FaultPlan()
                .at(30.0, NodeCrash("b03"))
                .at(45.0, NodeRestart("b03")))
    """

    events: List[Tuple[float, object]] = field(default_factory=list)

    def at(self, t: float, event) -> "FaultPlan":
        """Schedule ``event`` ``t`` seconds after controller start."""
        if t < 0:
            raise ValueError(f"fault time must be >= 0, got {t}")
        if not isinstance(event, FaultEvent):
            raise TypeError(f"not a fault event: {event!r}")
        self.events.append((t, event))
        return self

    def schedule(self) -> List[Tuple[float, object]]:
        """Events in execution order (stable sort: ties keep insertion
        order, so e.g. a Heal queued before a Partition at the same
        instant still runs first)."""
        return sorted(self.events, key=lambda pair: pair[0])

    @property
    def duration(self) -> float:
        """Offset of the last scheduled event (0.0 for an empty plan)."""
        return max((t for t, _ in self.events), default=0.0)

    def __len__(self) -> int:
        return len(self.events)
