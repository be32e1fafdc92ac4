"""The process that executes a :class:`~repro.faults.plan.FaultPlan`.

``FaultController`` is duck-typed over the deployment: it needs ``sim``,
``fabric``, and ``nodes``, and uses ``rngs``, ``metrics``, and ``tracer``
when present.  This keeps the fault plane below :mod:`repro.core` in the
layering — any deployment-shaped object (Sorrento, the NFS/PVFS
baselines, or a bare test harness) can be driven without an import
cycle.  A crash or restart is the node's own ``crash()`` / ``restart()``,
so whatever ran on the node comes back with it.

Every executed event is appended to :attr:`FaultController.timeline`,
counted in the deployment ``MetricsRegistry`` under scope ``"fault"``,
and (when tracing is on) recorded as a zero-or-more-second span — so an
experiment report can interleave the fault schedule with its throughput
samples.

Determinism contract: all randomness used by injected faults comes from
named :class:`~repro.sim.rng.RngStreams` streams derived from the
deployment seed (``faults:link:SRC->DST``, ``faults:disk:HOST``), and an
installed-but-inactive hook draws nothing — same seed, same plan, same
schedule, bit-identical run.
"""

from __future__ import annotations

import random
from typing import Any, List, Optional, Tuple

from repro.faults.plan import (
    DiskFault,
    DiskHeal,
    FaultPlan,
    Heal,
    LinkDegrade,
    LinkRestore,
    NodeCrash,
    NodeRestart,
    Partition,
)
from repro.network.switch import LinkFault
from repro.storage.disk import DiskFaultState

#: MetricsRegistry scope under which fault events are counted.
FAULT_SCOPE = "fault"


class FaultController:
    """Runs a plan against a deployment on the sim clock."""

    def __init__(self, dep: Any, plan: FaultPlan):
        self.dep = dep
        self.sim = dep.sim
        self.plan = plan
        #: Executed events: ``(sim_time, event.kind, event)``.
        self.timeline: List[Tuple[float, str, object]] = []
        self.proc = None

    # -- lifecycle -------------------------------------------------------
    def start(self):
        """Spawn the controller process; returns it (waitable)."""
        if self.proc is not None:
            raise RuntimeError("controller already started")
        self.proc = self.sim.process(self._run(), name="fault-controller")
        return self.proc

    def _run(self):
        base = self.sim.now
        for at, event in self.plan.schedule():
            delay = base + at - self.sim.now
            if delay > 0:
                yield self.sim.timeout(delay)
            self._execute(event)

    # -- execution -------------------------------------------------------
    def _execute(self, event) -> None:
        tracer = getattr(self.dep, "tracer", None)
        span = None
        if tracer is not None:
            span = tracer.start(f"fault:{event.kind}", parent=None,
                                event=repr(event))
        self._dispatch(event)
        self.timeline.append((self.sim.now, event.kind, event))
        registry = getattr(self.dep, "metrics", None)
        if registry is not None:
            registry.stats(FAULT_SCOPE, event.kind).observe_oneway()
        if span is not None:
            tracer.finish(span)

    def _dispatch(self, event) -> None:
        dep, fabric = self.dep, self.dep.fabric
        if isinstance(event, NodeCrash):
            dep.nodes[event.host].crash(wipe=event.wipe)
        elif isinstance(event, NodeRestart):
            dep.nodes[event.host].restart()
        elif isinstance(event, Partition):
            side_b = event.side_b
            if side_b is None:
                isolated = set(event.side_a)
                side_b = tuple(sorted(set(fabric.hosts) - isolated))
            fabric.partition(event.side_a, side_b,
                             symmetric=event.symmetric)
        elif isinstance(event, Heal):
            fabric.heal(event.side_a, event.side_b)
        elif isinstance(event, LinkDegrade):
            fabric.degrade_link(event.src, event.dst, LinkFault(
                rng=self._rng(f"faults:link:{event.src}->{event.dst}"),
                extra_latency=event.extra_latency, jitter=event.jitter,
                drop=event.drop, duplicate=event.duplicate,
                bandwidth_cap=event.bandwidth_cap,
            ))
        elif isinstance(event, LinkRestore):
            fabric.restore_link(event.src, event.dst)
        elif isinstance(event, DiskFault):
            dep.nodes[event.host].set_disk_fault(DiskFaultState(
                rng=self._rng(f"faults:disk:{event.host}"),
                error_rate=event.error_rate, slowdown=event.slowdown,
            ))
        elif isinstance(event, DiskHeal):
            dep.nodes[event.host].clear_disk_fault()
        else:  # pragma: no cover - FaultPlan.at already type-checks
            raise TypeError(f"unknown fault event: {event!r}")

    def _rng(self, name: str) -> random.Random:
        rngs = getattr(self.dep, "rngs", None)
        if rngs is not None:
            return rngs.py(name)
        # Bare harnesses without RngStreams still get a deterministic
        # stream (seeded by the stream name alone).
        return random.Random(name)


def inject(dep: Any, plan: FaultPlan) -> FaultController:
    """Build and start a controller in one call."""
    controller = FaultController(dep, plan)
    controller.start()
    return controller


def fault_timeline_report(controller: FaultController,
                          t0: Optional[float] = None) -> str:
    """One line per executed event, for experiment reports."""
    lines = []
    for t, kind, event in controller.timeline:
        rel = t - (t0 if t0 is not None else 0.0)
        lines.append(f"  t={rel:8.3f}s  {kind:<13} {event}")
    return "\n".join(lines) if lines else "  (no fault events executed)"
