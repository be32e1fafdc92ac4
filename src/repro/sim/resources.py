"""Shared resources for the DES: semaphores, queues, and bandwidth pipes."""

from __future__ import annotations

import sys
from collections import deque
from typing import Any, Deque

from repro.sim.events import PENDING, Event
from repro.sim.kernel import Simulator


class Resource:
    """A counted resource (semaphore) with FIFO granting.

    Usage from a process::

        grant = resource.request()
        yield grant
        try:
            ...
        finally:
            resource.release()
    """

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        self._waiters: Deque[Event] = deque()

    def request(self) -> Event:
        """Ask for a slot; yields immediately if capacity is free."""
        ev = Event(self.sim, name="resource-grant")
        if self.in_use < self.capacity:
            self.in_use += 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        """Free a slot, waking the next live waiter.

        A no-op from a ``finally`` that ``GeneratorExit`` is unwinding:
        nothing in the simulator closes a running process, so that is the
        collector discarding a run nobody will drive again.  Waking a
        waiter would schedule a heap entry pointing into the dead run —
        an object the collection did not know about, which revives every
        object connected to it until the next collection."""
        if isinstance(sys.exc_info()[1], GeneratorExit):
            return
        if self.in_use <= 0:
            raise RuntimeError("release without matching request")
        # Hand the slot to the next live waiter, if any.
        while self._waiters:
            ev = self._waiters.popleft()
            if ev.state is PENDING:
                ev.succeed()
                return
        self.in_use -= 1

    def cancel(self, ev: Event) -> None:
        """Abandon a pending request (e.g. the requester was interrupted)."""
        if ev in self._waiters and ev.state is PENDING:
            self._waiters.remove(ev)


class Store:
    """An unbounded FIFO queue of items; ``get`` blocks until one arrives."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def put(self, item: Any) -> None:
        """Enqueue; wakes a waiting getter if any."""
        while self._getters:
            ev = self._getters.popleft()
            if ev.state is PENDING:
                ev.succeed(item)
                return
        self._items.append(item)

    def get(self) -> Event:
        """Event that yields the next item (immediately if buffered)."""
        ev = Event(self.sim, name="store-get")
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def __len__(self) -> int:
        return len(self._items)


class Barrier:
    """An MPI-style barrier for a fixed party size.

    The n-th arrival releases everyone; the barrier then resets for the
    next round (cyclic, like MPI_Barrier on a communicator).
    """

    def __init__(self, sim: Simulator, parties: int):
        if parties < 1:
            raise ValueError("parties must be >= 1")
        self.sim = sim
        self.parties = parties
        self._arrived = 0
        self._gate = Event(sim, name="barrier")
        self.generation = 0

    def wait(self):
        """Generator: block until all parties arrive."""
        self._arrived += 1
        if self._arrived >= self.parties:
            gate, self._gate = self._gate, Event(self.sim, name="barrier")
            self._arrived = 0
            self.generation += 1
            gate.succeed(self.generation)
            yield self.sim.timeout(0)
            return self.generation
        gen = yield self._gate
        return gen


class BandwidthPipe:
    """A byte server modelling a link or a disk bus.

    Bulk transfers are FIFO: ``nbytes`` completes ``nbytes / rate``
    seconds after all previously queued bulk work.  Small messages
    (≤ ``small_bypass`` bytes) *cut through*: on a packet-switched link a
    64-byte RPC interleaves with an in-flight 4 MB stream instead of
    waiting behind it, so small completions ignore the bulk backlog while
    still consuming capacity.  ``small_bypass=0`` (disks) disables the
    bypass — platters really do serialize.
    """

    def __init__(self, sim: Simulator, rate: float, overhead: float = 0.0,
                 small_bypass: int = 0):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.sim = sim
        self.rate = rate
        self.overhead = overhead
        self.small_bypass = small_bypass
        self._ready_at = 0.0
        self.bytes_transferred = 0

    def reserve(self, nbytes: float, not_before: float = 0.0):
        """Book ``nbytes`` of capacity; returns (start, done) times.

        Unlike :meth:`transfer`, no event is created — callers compose
        reservations across pipes (e.g. pipelined tx→rx transfers).
        """
        if nbytes < 0:
            raise ValueError("negative transfer size")
        # Per message, so maxima are comparisons (first wins a tie), not calls.
        now = self.sim.now
        cost = nbytes / self.rate
        ready = self._ready_at
        self.bytes_transferred += nbytes if nbytes.__class__ is int else int(nbytes)
        if self.small_bypass and nbytes <= self.small_bypass:
            start = not_before if not_before > now else now
            # Capacity is still consumed; only the waiting is skipped.
            self._ready_at = (now if now > ready else ready) + cost
            return start, start + self.overhead + cost
        start = ready if ready > now else now
        if not_before > start:
            start = not_before
        self._ready_at = done = start + self.overhead + cost
        return start, done

    def transfer(self, nbytes: float) -> Event:
        """Queue ``nbytes`` and return an event for its completion."""
        _start, done = self.reserve(nbytes)
        return self.sim.timeout(done - self.sim.now)

    @property
    def backlog_seconds(self) -> float:
        """Seconds of queued work ahead of a new arrival."""
        return max(0.0, self._ready_at - self.sim.now)
