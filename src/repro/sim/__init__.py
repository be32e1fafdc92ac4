"""Discrete-event simulation kernel.

A small, dependency-free DES in the style of SimPy: a :class:`Simulator`
drives an event heap in virtual time, and *processes* are Python generators
that ``yield`` events (timeouts, resource grants, message arrivals) and are
resumed when those events trigger.

The kernel is the substrate that stands in for the paper's physical
clusters: all Sorrento daemons, clients, and baseline servers run as
processes on top of it.
"""

from repro.sim.events import (
    AllOf,
    Event,
    EventFailed,
    Interrupt,
    Reply,
    Timeout,
)
from repro.sim.kernel import Process, Simulator, gather
from repro.sim.resources import BandwidthPipe, Barrier, Resource, Store
from repro.sim.rng import RngStreams

__all__ = [
    "AllOf",
    "BandwidthPipe",
    "Barrier",
    "Event",
    "EventFailed",
    "Interrupt",
    "Process",
    "Reply",
    "Resource",
    "RngStreams",
    "Simulator",
    "Store",
    "Timeout",
    "gather",
]
