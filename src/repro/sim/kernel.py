"""The simulation kernel: virtual clock, event heap, and process driver.

Hot-path layout (this is the substrate every experiment is bottlenecked
on, so the per-event taxes are explicit):

* zero-delay events bypass ``heapq`` through two FIFOs — one for
  priority-0 "urgent" events (:meth:`Simulator.call_soon`: process
  bootstrap, interrupts, deferred checks) and one for ordinary
  same-tick triggers — preserving exactly the ``(time, priority, lane,
  seq)`` order the heap would have produced;
* only what can fire stands on the heap: answer slots wait in one FIFO
  per timeout value behind one entry (:class:`~repro.sim.events.Deadlines`),
  and a request whose end is known when it is issued is one
  :class:`~repro.sim.events.Completion` however many drives serve it;
* one message copy is one heap entry: a wire delivery is a ``Callback``
  (:meth:`Simulator.call_later`), an RPC's answer-or-deadline one
  ``Reply`` (:meth:`Simulator.reply`), a handler's generator starts
  inside its delivery (:meth:`Simulator.start`), and a process nobody
  waits on finishes without scheduling anything;
* a heartbeat from a known member is no event: it waits on the
  receiver's board under the key its delivery would have had
  (:meth:`Simulator.draw_seq`) until a later key reads it (``_key``);
* an event that was always the next one is not scheduled: an RPC answer
  resumes its caller inside its delivery (``Reply.answer``), and a
  one-branch :func:`gather` runs in the caller's process;
* every driver (``run``, ``run_until``, ``run_process``) is
  :meth:`Simulator.run_window`'s fused peek + pop + dispatch frame;
  :meth:`Simulator.step` is the one-event reference it is tested against;
* the cyclic collector has nothing to do: a finished process holds no
  reference to itself, and for the length of a run everything built
  before it is out of the collector's reach (:func:`collector_exempt`).
"""

from __future__ import annotations

import gc
import heapq
from collections import deque
from contextlib import contextmanager
from math import inf, nextafter
from typing import Any, Callable, Generator, Iterable, Optional

from repro.sim.events import (
    CANCELLED,
    FAILED,
    PENDING,
    SUCCEEDED,
    AllOf,
    Callback,
    Completion,
    Event,
    EventFailed,
    Interrupt,
    Reply,
    Timeout,
)


@contextmanager
def collector_exempt():
    """Keep everything alive on entry out of the cyclic collector's reach
    until exit (``gc.freeze()`` / ``gc.unfreeze()``).

    The model a run works on is static and large, and every *full*
    collection re-walks all of it; frozen, collections inside the block
    see only what the run allocated.  A process already frozen (by its
    caller, by an enclosing run) is left exactly as found.  Freezing
    zeroes the young-generation counters, so bracket a whole run, never
    each of many short grants, or the young collector starves."""
    if gc.get_freeze_count():
        yield
        return
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


#: What a process is started with (bootstrap, :meth:`Simulator.start`) or
#: kicked by an interrupt: a succeeded, valueless trigger.
_STARTED = Event(None)
_STARTED.state = SUCCEEDED


class Simulator:
    """Drives events in virtual time.

    The heap holds ``(time, priority, lane, seq, event)`` tuples.  ``lane``
    is the same-instant arbitration rule: local events carry lane 0, wire
    deliveries carry a stable lane derived from the (src, dst) pair (see
    :meth:`repro.network.switch.Host.lane_to`), so ties at one
    ``(time, priority)`` resolve by *content* — locals first, then
    deliveries in lane order — independent of heap insertion order.  That
    independence is what makes one global Simulator and K per-partition
    Simulators (whose ``seq`` counters advance differently) dispatch
    same-instant events identically.  ``seq`` still breaks the remaining
    ties (same lane = same (src, dst) pair = per-pair FIFO).  The
    zero-delay FIFOs hold tuples of the same shape (always lane 0 — a
    laned zero-delay ``call_later`` goes to the heap), and every pop takes
    the lexicographically-smallest tuple across all three containers, so
    the fast path is order-equivalent to the pure-heap kernel.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list = []
        self._imm0: deque = deque()  # zero-delay, priority 0 (urgent)
        self._imm1: deque = deque()  # zero-delay, priority 1
        self._seq: int = 0
        self._nprocessed: int = 0
        self._nswept: int = 0        # answer slots retired unfired
        self._deadlines: dict = {}   # timeout value -> its Deadlines queue
        self._npending: int = 0
        self._peak_pending: int = 0
        #: The key of the event dispatching now (after ``step()`` or a
        #: window that broke off, the last one's); ``None`` between runs:
        #: everything up to ``now`` ran.
        self._key: Optional[tuple] = None
        #: Cooperative break for :meth:`run_window`: a callback fired
        #: mid-window (e.g. "my last local process completed") sets this
        #: to make the window loop return early.  The caller owns
        #: clearing it.
        self.window_break: bool = False
        #: The process whose generator is currently executing (None
        #: between resumptions).  Consumers like the tracer use it to
        #: attribute work to a logical task without threading a context
        #: argument through every generator.
        self.active_process: Optional["Process"] = None

    # -- introspection --------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Scheduled-but-unpopped entries (a deadline queue is one)."""
        return self._npending

    @property
    def peak_pending(self) -> int:
        """High-water mark of :attr:`pending_events` over the run."""
        return self._peak_pending

    def next_event_time(self) -> Optional[float]:
        """When the next event fires, or None if the simulation is idle."""
        t = self._heap[0][0] if self._heap else None
        if self._imm1 and (t is None or self._imm1[0][0] < t):
            t = self._imm1[0][0]
        if self._imm0 and (t is None or self._imm0[0][0] < t):
            t = self._imm0[0][0]
        return t

    # -- scheduling ---------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0, priority: int = 1) -> None:
        self._seq += 1
        if delay != 0.0 or priority > 1:
            heapq.heappush(self._heap,
                           (self.now + delay, priority, 0, self._seq, event))
        elif priority == 0:
            self._imm0.append((self.now, 0, 0, self._seq, event))
        else:
            self._imm1.append((self.now, 1, 0, self._seq, event))
        n = self._npending + 1
        self._npending = n
        if n > self._peak_pending:
            self._peak_pending = n

    def _schedule_at(self, event: Event, t: float, priority: int = 1,
                     lane: int = 0, seq: int = 0) -> None:
        """Schedule ``event`` at the *absolute* instant ``t >= now``, under
        ``seq`` if :meth:`draw_seq` drew it earlier.  ``_schedule(ev, t -
        now)`` stores ``now + (t - now)``, not always ``t``, and the
        parallel engine's transit-drain wakes must fire at bit-identical
        instants in serial and partitioned runs."""
        if not seq:
            seq = self._seq = self._seq + 1
        heapq.heappush(self._heap, (t, priority, lane, seq, event))
        n = self._npending + 1
        self._npending = n
        if n > self._peak_pending:
            self._peak_pending = n

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing after ``delay`` simulated seconds."""
        return Timeout(self, delay, value)

    def call_later(self, delay: float, fn: Callable[[Any, Any], None],
                   a: Any, b: Any, lane: int = 0) -> None:
        """Call ``fn(a, b)`` after ``delay`` seconds: one slotted event
        whose dispatch is the call itself (a wire delivery).  ``lane`` is
        the same-instant arbitration lane — 0 for local work; deliveries
        pass their (src, dst) lane so ties resolve by content.  Every
        message is one: it pushes its own heap entry (FIFO if zero-delay)."""
        if lane == 0 and delay == 0.0:
            self._schedule(Callback(fn, a, b))
            return
        seq = self._seq = self._seq + 1
        heapq.heappush(self._heap,
                       (self.now + delay, 1, lane, seq, Callback(fn, a, b)))
        n = self._npending + 1
        self._npending = n
        if n > self._peak_pending:
            self._peak_pending = n

    def call_soon(self, fn: Callable[[Any, Any], None], a: Any, b: Any) -> None:
        """Call ``fn(a, b)`` at this instant, urgently: once the running
        event has finished and before anything else.  A process's
        bootstrap and interrupt kicks are this call, so work that never
        waits takes the slot (and the one ``seq``) a process would."""
        self._schedule(Callback(fn, a, b), 0.0, 0)

    def draw_seq(self) -> int:
        """The ``seq`` a schedule call would draw, for an entry kept off
        the heap (a board's, a queued refresh's)."""
        self._seq += 1
        return self._seq

    def call_at(self, when: float, fn: Callable[[Any, Any], None], a: Any,
                b: Any, priority: int = 1, lane: int = 0, seq: int = 0) -> None:
        """Call ``fn(a, b)`` at the *absolute* instant ``when >= now``
        (:meth:`_schedule_at`), under ``seq`` if :meth:`draw_seq` drew it
        earlier: an entry kept off the heap keeps its key as an event."""
        self._schedule_at(Callback(fn, a, b), when, priority, lane, seq)

    def fell_due(self, key: tuple) -> bool:
        """Whether ``key`` precedes the dispatching one (between runs: ``now``)."""
        return key < (self._key or (self.now, 3))

    def reply(self, deadline: float) -> Reply:
        """An answer slot that fires with ``None`` after ``deadline``
        seconds unless :meth:`~repro.sim.events.Reply.resolve` (or, inside
        a wire delivery, ``answer``) answers it first."""
        return Reply(self, deadline)

    def completion(self, delay: float, hops: int,
                   exc: Optional[BaseException] = None) -> Completion:
        """A :meth:`timeout`, failed with ``exc`` if given, whose waiters
        wake up to ``hops`` zero-delay slots later (``Completion``)."""
        return Completion(self, delay, hops, exc)

    def event(self, name: str = "") -> Event:
        """A fresh untriggered event."""
        return Event(self, name)

    def all_of(self, events) -> Event:
        """An event firing once every event in ``events`` has fired."""
        return AllOf(self, events)

    def process(self, gen: Generator, name: str = "") -> "Process":
        """Run a generator as a process, starting at the current instant
        once the running event has finished; returns its Process event."""
        proc = Process(self, gen, name)
        self.call_soon(proc._resume_cb, _STARTED, None)
        return proc

    def start(self, gen: Generator, name: str = "") -> "Process":
        """Run a generator as a process, executing it up to its first
        wait *before returning* — for callers with nothing left to do in
        the current event (a delivery handing a request to its handler):
        the kick :meth:`process` schedules would be the next event anyway.
        """
        proc = Process(self, gen, name)
        proc._resume(_STARTED)
        return proc

    # -- execution ------------------------------------------------------
    def step(self) -> None:
        """Process the next event (lowest ``(time, priority, lane, seq)``)."""
        imm0, imm1, heap = self._imm0, self._imm1, self._heap
        best = imm0[0] if imm0 else None
        use = 0
        if imm1 and (best is None or imm1[0] < best):
            best = imm1[0]
            use = 1
        if heap and (best is None or heap[0] < best):
            use = 2
        if use == 2:
            entry = heapq.heappop(heap)
        elif use == 1:
            entry = imm1.popleft()
        else:
            entry = imm0.popleft()
        when, _prio, _lane, _seq, event = entry
        self._npending -= 1
        self.now = when
        self._key = entry[:4]       # not the event: nothing keeps it alive
        if event.state is CANCELLED:
            # A reply's queued answer its deadline already delivered.
            self._nswept += 1
            return
        self._nprocessed += 1
        event._dispatch()

    def run_window(self, t_end: float, grid: float = 0.0) -> int:
        """Process every event strictly before ``t_end`` in one fused loop.

        Peek, pop and dispatch share one frame: this is the hot loop of
        every driver (:meth:`run`, :meth:`run_until`, the partition
        workers' grants).  Selection order is identical to :meth:`step`
        (lexicographically smallest ``(time, priority, lane, seq)``
        across the FIFOs and the heap).

        Returns the number of distinct grid-aligned windows of width
        ``grid`` that contained at least one processed event (0 when
        ``grid`` is 0) — the "granted vs executed" accounting for the
        grant protocol.  Stops early when :attr:`window_break` is set by
        a callback; the caller inspects and clears the flag.
        """
        imm0, imm1, heap = self._imm0, self._imm1, self._heap
        pop = heapq.heappop
        wins = 0
        edge = -1.0
        while True:
            src = 0
            best = imm0[0] if imm0 else None
            if imm1 and (best is None or imm1[0] < best):
                best = imm1[0]
                src = 1
            if heap and (best is None or heap[0] < best):
                best = heap[0]
                src = 2
            if best is None or best[0] >= t_end:
                self._key = None
                return wins
            if src == 2:
                pop(heap)
            elif src == 1:
                imm1.popleft()
            else:
                imm0.popleft()
            when, _prio, _lane, _seq, event = best
            self._npending -= 1
            self.now = when
            if event.state is CANCELLED:
                self._nswept += 1
                continue
            self._nprocessed += 1
            if grid and when >= edge:
                wins += 1
                edge = (int(when / grid) + 1.0) * grid
            self._key = best
            event._dispatch()
            if self.window_break:
                self._key = best[:4]
                return wins

    def run(self, until: Optional[float] = None) -> None:
        """Run until no events remain or virtual time passes ``until``."""
        with collector_exempt():
            # "<= until" is "strictly before the next float".
            self.run_window(inf if until is None else nextafter(until, inf))
        if until is not None:
            self.now = max(self.now, until)

    def run_until(self, events: Iterable[Event], max_time: float = inf) -> None:
        """Run until every event in ``events`` has dispatched — unlike
        ``run(until=horizon)``, no grinding through hours of heartbeats
        after the workload completes.  A callback countdown breaks the
        fused loop, so the driver adds no work per event.  Raises
        :class:`RuntimeError` on deadlock or past ``max_time``."""
        remaining = 0

        def _one_done(_ev):
            nonlocal remaining
            remaining -= 1
            if not remaining:
                self.window_break = True

        for ev in events:
            if ev._callbacks is not None:  # not yet dispatched
                remaining += 1
                ev.add_callback(_one_done)
        if not remaining:
            return
        with collector_exempt():
            self.run_window(nextafter(max_time, inf))
        self.window_break = False
        if remaining:
            if not self._npending:
                raise RuntimeError(
                    f"deadlock: {remaining} events pending and nothing "
                    f"scheduled at t={self.now:g}")
            raise RuntimeError(f"exceeded {max_time:g} simulated seconds "
                               f"with {remaining} events pending")

    def run_process(self, proc: "Process", until: Optional[float] = None) -> Any:
        """Run until ``proc`` finishes; return its value (raise on failure)."""
        self.run_until((proc,), inf if until is None else until)
        if proc.state is FAILED:
            raise proc.value
        return proc.value


def gather(sim: Simulator, gens: list) -> Generator:
    """Run sub-generators concurrently; return their results in order.

    Usage from a process: ``results = yield from gather(sim, [g1, g2])``.
    If any sub-process raises, the exception propagates (after all have
    settled) — callers needing partial results should catch per-generator.

    One branch runs in the caller's process, taking its own process's
    kick, end and ``gather-done`` slots only when something is queued
    ahead of them (docs/performance.md § Events that were always next):
    its spans parent under the caller's, and the caller's interrupts end it.
    """
    if len(gens) == 1:
        if sim._imm0:
            kick = Event(sim)
            kick.state = SUCCEEDED
            sim._schedule(kick, 0.0, 0)
            yield kick              # the branch process's bootstrap kick
        failure = None
        try:
            value = yield from gens[0]
        except Interrupt:
            raise                   # the caller's; it raised at once before
        except Exception as exc:    # noqa: BLE001 - re-raised below
            failure = exc
        heap = sim._heap
        if sim._imm0 or sim._imm1 or (heap and heap[0] < (sim.now, 1, 1)):
            yield Event(sim).succeed()      # the branch process's end
            yield Event(sim).succeed()      # gather-done
        if failure is not None:
            raise failure
        return [value]
    procs = [sim.process(g, name="gather") for g in gens]
    done = Event(sim, name="gather-done")
    remaining = len(procs)
    if remaining == 0:
        return []

    def _on_done(_ev):
        nonlocal remaining
        remaining -= 1
        if remaining == 0 and not done.triggered:
            done.succeed()

    for p in procs:
        p.add_callback(_on_done)
    yield done
    results = []
    for p in procs:
        if p.state == FAILED:
            raise p.value
        results.append(p.value)
    return results


class Process(Event):
    """A generator-based coroutine running in virtual time.

    The generator yields :class:`Event` instances; the process resumes with
    the event's value (or the event's exception is thrown into it).  The
    process is itself an event that triggers when the generator returns
    (value = return value) or raises.
    """

    __slots__ = ("_gen", "_waiting_on", "_interrupts", "_resume_cb")

    def __init__(self, sim: Simulator, gen: Generator, name: str = ""):
        """Wrap ``gen``; :meth:`Simulator.process` / :meth:`Simulator.start`
        decide when it first runs."""
        self.sim = sim
        self.state = PENDING
        self.value = None
        self._callbacks = []
        self._name = name or getattr(gen, "__name__", "process")
        self._gen = gen
        self._waiting_on: Optional[Event] = None
        self._interrupts: Optional[list] = None  # built lazily; rare
        # One bound method for the process's lifetime: registering and
        # tombstoning callbacks then never re-allocates it per yield.
        self._resume_cb = self._resume

    @property
    def is_alive(self) -> bool:
        """Whether the process is still running."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield."""
        if self.triggered:
            return
        if self._interrupts is None:
            self._interrupts = []
        self._interrupts.append(Interrupt(cause))
        if self._waiting_on is not None:
            target, self._waiting_on = self._waiting_on, None
            target.remove_callback(self._resume_cb)
        # Resume immediately (urgent priority so interrupts preempt).
        self.sim.call_soon(self._resume_cb, _STARTED, None)

    # -- internal ---------------------------------------------------------
    def _resume(self, trigger: Event, _b: Any = None) -> None:
        """Drive the generator from ``trigger`` to its next real wait
        (an event's callback, or the ``fn(a, b)`` of a kick)."""
        self._waiting_on = None
        sim = self.sim
        prev = sim.active_process
        sim.active_process = self
        gen = self._gen
        try:
            while True:
                try:
                    if self._interrupts:
                        target = gen.throw(self._interrupts.pop(0))
                    elif trigger.state is FAILED:
                        exc = trigger.value
                        if not isinstance(exc, BaseException):
                            exc = EventFailed(exc)
                        target = gen.throw(exc)
                    else:
                        target = gen.send(trigger.value)
                except StopIteration as stop:
                    self._finish(SUCCEEDED, stop.value)
                    return
                except Interrupt:
                    # Uncaught interrupt kills the process silently: this
                    # is the normal fate of daemon loops on a crashed node.
                    self._finish(SUCCEEDED, None)
                    return
                except BaseException as exc:  # noqa: BLE001 - propagate to waiters
                    if self.state is not PENDING:
                        raise
                    self._finish(FAILED, exc)
                    return
                if not isinstance(target, Event):
                    raise TypeError(
                        f"process {self.name!r} yielded {target!r}, not an Event"
                    )
                callbacks = target._callbacks
                if callbacks is None:
                    # Already dispatched in the past: consume inline.
                    trigger = target
                    continue
                self._waiting_on = target
                callbacks.append(self._resume_cb)
                return
        finally:
            sim.active_process = prev

    def _finish(self, state: str, value: Any) -> None:
        """Settle the process event.  With waiters it is scheduled like
        any trigger; with none it is marked dispatched on the spot — a
        later ``yield``/``add_callback`` consumes it inline either way."""
        if self.state is PENDING:
            self.state = state
            self.value = value
            # The process's reference to itself; without it a finished
            # process is freed by reference count.  (``_gen`` stays: a
            # stale kick — a second interrupt — still resumes it, a no-op.)
            self._resume_cb = None
            if self._callbacks:
                self.sim._schedule(self)
            else:
                self._callbacks = None
