"""Event primitives for the DES kernel.

An :class:`Event` is a one-shot occurrence in virtual time.  Processes wait
on events by ``yield``-ing them; the kernel resumes the process with the
event's value (or raises its exception) once the event triggers.

Hot-path discipline: events carry no eagerly-built name strings (names are
lazy, computed in ``__repr__``), callback removal tombstones instead of
compacting the list, and the per-message shapes — "call this at that
instant" (:class:`Callback`) and "an answer or a deadline, whichever is
first" (:class:`Reply`, queued per timeout value off the heap by
:class:`Deadlines`) — are one event each.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Callable, Iterable, Optional

PENDING = "pending"
SUCCEEDED = "succeeded"
FAILED = "failed"
#: A :class:`Reply` resolved at the instant its deadline fired: the deadline
#: delivered the answer, and the kernel sweeps the copy ``resolve`` queued.
CANCELLED = "cancelled"


class EventFailed(Exception):
    """Raised in a waiting process when the event it waited on failed."""


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    ``cause`` carries an arbitrary payload describing why (e.g. a node
    crash during the failure-injection experiments).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot event that processes can wait on.

    Events move from *pending* to exactly one of *succeeded* or *failed*.
    Callbacks registered before the trigger fire when the kernel pops the
    event from its heap; callbacks added afterwards fire immediately.
    """

    __slots__ = ("sim", "state", "value", "_callbacks", "_name")

    def __init__(self, sim: "Simulator", name: str = ""):  # noqa: F821
        # Hot subclasses (Timeout, Reply, Process) set these five fields
        # themselves rather than pay a super().__init__() frame per event.
        self.sim = sim
        self.state = PENDING
        self.value: Any = None
        self._callbacks: Optional[list] = []
        self._name = name

    # -- state ------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @name.setter
    def name(self, value: str) -> None:
        self._name = value

    @property
    def triggered(self) -> bool:
        return self.state is not PENDING

    @property
    def ok(self) -> bool:
        return self.state is SUCCEEDED

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Mark the event successful and schedule its callbacks."""
        if self.state is not PENDING:
            raise RuntimeError(f"event {self.name!r} already triggered")
        self.state = SUCCEEDED
        self.value = value
        self.sim._schedule(self, delay)
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        """Mark the event failed; waiters will see ``exc`` raised."""
        if self.state is not PENDING:
            raise RuntimeError(f"event {self.name!r} already triggered")
        self.state = FAILED
        self.value = exc
        self.sim._schedule(self, delay)
        return self

    # -- callbacks --------------------------------------------------------
    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        if self._callbacks is None:
            # Already dispatched: run inline (event is in the past).
            fn(self)
        else:
            self._callbacks.append(fn)

    def remove_callback(self, fn: Callable[["Event"], None]) -> None:
        """Detach ``fn`` by tombstoning its slot (swept at dispatch).

        No list compaction: interrupts hit this on the hot path, and
        shifting the tail is the expensive part of ``list.remove``.
        """
        cbs = self._callbacks
        if cbs is not None:
            for i, cb in enumerate(cbs):
                if cb == fn:
                    cbs[i] = None
                    return

    def _dispatch(self) -> None:
        callbacks, self._callbacks = self._callbacks, None
        if callbacks:
            for fn in callbacks:
                if fn is not None:
                    fn(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r} {self.state}>"


class Timeout(Event):
    """An event that triggers ``delay`` simulated seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):  # noqa: F821
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        self.sim = sim
        self.state = SUCCEEDED
        self.value = value
        self._callbacks = []
        self._name = ""
        self.delay = delay
        sim._schedule(self, delay)

    @property
    def name(self) -> str:
        # Lazy: the hot path never pays for the f-string.
        return self._name or f"timeout({self.delay:g})"

    @name.setter
    def name(self, value: str) -> None:
        self._name = value


class Callback(Event):
    """A plain call at a later instant (``Simulator.call_later``):
    dispatch *is* ``fn(a, b)`` — no callback list, closure or value.  It
    never leaves the kernel, so nothing can wait on it and only the field
    the run loop reads (``state``) is initialised."""

    __slots__ = ("fn", "a", "b")

    def __init__(self, fn: Callable[[Any, Any], None], a: Any, b: Any):
        self.state = SUCCEEDED
        self.fn = fn
        self.a = a
        self.b = b

    def _dispatch(self) -> None:
        self.fn(self.a, self.b)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Callback {self.fn!r}>"


class Reply(Event):
    """An answer slot that is its own deadline (``Simulator.reply``).

    Born with value ``None`` and a deadline ``deadline`` seconds ahead:
    a waiter resumed with ``None`` timed out.  :meth:`resolve` (in a wire
    delivery, :meth:`answer`) delivers an answer (any non-``None``
    value) at the current instant instead.  The deadline takes its
    ``seq`` but no heap entry: the slot waits in its timeout value's
    :class:`Deadlines` queue, which times it out at exactly the key
    ``(now + deadline, 1, 0, seq)`` unless it was answered first.
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", deadline: float):  # noqa: F821
        self.sim = sim
        self.state = SUCCEEDED
        self.value = None
        self._callbacks = []
        self._name = ""
        try:
            queue = sim._deadlines[deadline]
        except KeyError:            # the only slot of its value: arm a queue
            queue = sim._deadlines[deadline] = Deadlines(self, deadline)
            sim._schedule_at(queue, sim.now + deadline)
            return
        slots = queue.slots
        while slots and slots[0][2]._callbacks is None:
            slots.popleft()         # answered behind the head: retired
            sim._nswept += 1
        seq = sim._seq = sim._seq + 1
        slots.append((sim.now + deadline, seq, self))

    def resolve(self, value: Any) -> None:
        """Wake the waiter with ``value`` now.  Ignored once the reply
        has dispatched (timed out, or already answered)."""
        if self._callbacks is not None and self.value is None:
            self.value = value
            self.sim._schedule(self)

    def answer(self, value: Any) -> None:
        """:meth:`resolve` inside a wire delivery, waking the waiter before
        returning: a delivery (lane ≥ 1) pops only with both zero-delay
        FIFOs empty, so what :meth:`resolve` queues is the next event."""
        if self._callbacks is not None and self.value is None:
            self.value = value
            self._dispatch()

    def _dispatch(self) -> None:
        callbacks, self._callbacks = self._callbacks, None
        if self.value is not None:
            self.state = CANCELLED
        for fn in callbacks:
            if fn is not None:
                fn(self)


class Deadlines(Event):
    """Every :class:`Reply` of one timeout value, behind one heap entry at
    the key its ``head`` slot's deadline would have had; ``slots`` holds
    ``(when, seq, reply)`` behind it, in key order (``now + d`` never
    decreases for a fixed ``d``).  A pop moves past answered slots and
    re-arms at the next unanswered one before calling anything, then
    times the head out — or, the head answered, is a sweep, not an event.
    Emptied, it leaves ``sim._deadlines``.
    """

    __slots__ = ("head", "slots", "deadline")

    def __init__(self, head: Reply, deadline: float):
        self.sim = head.sim
        self.state = SUCCEEDED
        self._name = "deadlines"
        self.head = head
        self.slots: deque = deque()
        self.deadline = deadline

    def _dispatch(self) -> None:
        sim, slots, head = self.sim, self.slots, self.head
        while slots and slots[0][2]._callbacks is None:
            slots.popleft()
            sim._nswept += 1
        if slots:
            when, seq, self.head = slots.popleft()
            heappush(sim._heap, (when, 1, 0, seq, self))
            sim._npending += 1
        else:
            del sim._deadlines[self.deadline]
        if head._callbacks is not None:
            head._dispatch()
        else:
            sim._nswept += 1
            sim._nprocessed -= 1


class Completion(Timeout):
    """A request whose end is known when it is issued, as one event
    (``Simulator.completion``).  ``hops`` zero-delay slots — where a chain
    of events (a drive's error event, an ``AllOf`` over RAID members)
    reached the waiters — follow it, each taken only when something is
    queued ahead (either FIFO, or a lane-0 heap entry at this instant)."""

    __slots__ = ("hops",)

    def __init__(self, sim: "Simulator", delay: float, hops: int,  # noqa: F821
                 exc: Optional[BaseException]):
        self.hops = hops
        Timeout.__init__(self, sim, delay, exc)
        self.state = SUCCEEDED if exc is None else FAILED

    def _dispatch(self) -> None:
        sim = self.sim
        while self.hops:
            self.hops -= 1
            heap = sim._heap
            if sim._imm0 or sim._imm1 or (heap and heap[0] < (sim.now, 1, 1)):
                sim._schedule(self)
                return
        Event._dispatch(self)


class AllOf(Event):
    """Triggers once every child event has triggered.

    Fails (with the first child's exception) if any child fails.
    """

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):  # noqa: F821
        super().__init__(sim)
        self.events = list(events)
        self._remaining = len(self.events)
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            ev.add_callback(self._on_child)

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if ev.state == FAILED:
            self.fail(ev.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._results())

    def _results(self) -> dict:
        # Only events that have actually *dispatched* count: a Timeout is
        # born in the succeeded state but hasn't happened until the kernel
        # pops it from the heap (callbacks cleared at dispatch).
        return {
            i: ev.value
            for i, ev in enumerate(self.events)
            if ev.state == SUCCEEDED and ev._callbacks is None
        }
