"""Tests for the kernel's hot-path machinery: answer-slot deadlines, the
zero-delay FIFOs, callback tombstoning, the
one-event shapes (``call_later``, ``call_soon``, ``reply``, ``start``,
silent process completion), the fused run loop and the one-branch
``gather`` that runs in its caller's process."""

import weakref

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Event, Reply, Simulator, gather
from repro.sim.events import CANCELLED, FAILED, SUCCEEDED


# ------------------------------------------------- answer-slot deadlines
def test_answered_reply_is_swept_not_dispatched():
    sim = Simulator()
    fired = []
    r = sim.reply(5.0)
    r.add_callback(lambda ev: fired.append((sim.now, ev.value)))
    r.resolve("early")
    sim.run()
    assert fired == [(0.0, "early")]        # once, at the answer
    assert r.state is CANCELLED and r.value == "early"
    assert sim._nprocessed == 1 and sim._nswept == 1
    assert sim.pending_events == 0


class _Answer:
    """An answer a weak reference can watch (a slotted ``Reply`` takes
    none): it lives exactly as long as the slot that holds it."""


def test_answered_slots_are_freed_long_before_their_deadlines():
    sim = Simulator()
    replies = [sim.reply(10.0) for _ in range(300)]
    assert sim.pending_events == 1          # one queue, one heap entry
    for r in replies:
        r.resolve(_Answer())
    sim.run(until=1.0)
    probe = weakref.ref(replies[150].value)
    del replies, r
    # The next slot of the same value retires the answered ones behind
    # the armed head, nine seconds before their deadlines.
    sim.reply(10.0)
    assert probe() is None
    assert (sim._nswept, sim.pending_events) == (299, 1)
    sim.run()
    # 300 answers and the last slot's time-out; the head's pop is a sweep.
    assert (sim._nprocessed, sim._nswept, sim.now) == (301, 300, 11.0)
    assert sim.pending_events == 0 and sim._deadlines == {}


def test_a_slot_answered_as_its_deadline_fires_gets_the_answer_once():
    """``resolve`` from a lane-0 event that precedes the deadline at its
    own instant: the deadline delivers the answer, and the copy
    ``resolve`` queued is swept."""
    sim = Simulator()
    got = []
    box = []
    sim.call_later(2.0, lambda b, _b: b[0].resolve("just in time"), box, None)
    box.append(sim.reply(2.0))
    box[0].add_callback(lambda ev: got.append((sim.now, ev.value)))
    sim.run()
    assert got == [(2.0, "just in time")]
    assert box[0].state is CANCELLED
    assert (sim._nprocessed, sim._nswept, sim.pending_events) == (2, 1, 0)


class _TombstoneReply(Reply):
    """``Reply`` as it stood before answer slots waited in one queue per
    timeout value: a heap entry of its own at the deadline, left behind
    as a tombstone the run loop sweeps when answered first.  Kept as the
    reference the queues are held to.  (The kernel's bulk compaction of
    tombstones is left out: it changed when they left the heap and how
    many were pending, never what dispatched.)"""

    __slots__ = ()

    def __init__(self, sim, deadline):
        self.sim = sim
        self.state = SUCCEEDED
        self.value = None
        self._callbacks = []
        self._name = ""
        sim._schedule(self, deadline)


_DELAYS = st.sampled_from([0.0, 0.25, 0.5, 0.5, 1.0, 1.5])
_VALUES = st.sampled_from([0.25, 0.5, 1.0])
_SLOTS = st.lists(
    st.tuples(_DELAYS, _VALUES,
              st.sampled_from(["resolve", "answer", "never", "at_deadline",
                               "twice", "resolve", "answer"]),
              _DELAYS, st.booleans()),
    min_size=1, max_size=25)


def _slot_program(sim, slots, log, make_reply):
    """Open answer slots at mixed timeout values from callbacks at mixed
    instants; answer them later (in or out of order) with ``resolve``
    from a lane-0 callback or ``answer`` from a delivery, exactly as the
    deadline fires, twice, or never.  A waiter is a callback or a
    process, and every other process retries a timed-out slot once —
    a new slot of the same value, opened from inside the deadline's
    dispatch.  Every wake-up logs ``(now, who, value)``."""

    def note(who, _b=None):
        log.append((sim.now, who))

    def waiter(i, reply, value):
        got = yield reply
        note((i, "got", got))
        if got is None and i % 2:
            note((i, "retried", (yield make_reply(sim, value))))

    def open_slot(i, item):
        _at, value, how, after, by_process = item
        box = []
        if how == "at_deadline":            # a lane-0 event just before it
            sim.call_later(value, lambda b, _b: b[0].resolve(("at", i)),
                           box, None)
        reply = make_reply(sim, value)
        box.append(reply)
        if how in ("resolve", "twice"):
            sim.call_later(after, lambda r, _b: r.resolve(("r", i)),
                           reply, None)
        if how in ("answer", "twice"):
            sim.call_later(after, lambda r, _b: r.answer(("a", i)),
                           reply, None, lane=1 + i % 3)
        if by_process:
            sim.process(waiter(i, reply, value))
        else:
            reply.add_callback(lambda e: note((i, "cb", e.value)))

    for i, item in enumerate(slots):
        sim.call_later(item[0], open_slot, i, item)
    # The clock's last stop: a run ends at its last entry, and the
    # reference's is often a tombstone.
    sim.timeout(9.0).add_callback(lambda _e: note("end"))


@given(_SLOTS, st.sampled_from(["run", "step", "windows"]))
@settings(max_examples=300, deadline=None)
def test_deadline_queues_dispatch_what_a_heap_entry_per_slot_did(slots, how):
    ref, new = Simulator(), Simulator()
    ref_log, new_log = [], []
    _slot_program(ref, slots, ref_log, _TombstoneReply)
    _slot_program(new, slots, new_log, Simulator.reply)
    while ref.pending_events:
        ref.step()
    if how == "step":
        while new.pending_events:
            new.step()
    else:
        for edge in [0.25, 0.5, 0.75, 1.0, 2.0] * (how == "windows") + [
                float("inf")]:
            new.run_window(edge)
    assert new_log == ref_log
    # Every answered slot is swept once either way: a tombstone popped
    # there, a slot retired from its queue here.
    assert (new._nprocessed, new._nswept, new.now) == \
        (ref._nprocessed, ref._nswept, ref.now)
    assert new.peak_pending <= ref.peak_pending
    assert new.pending_events == ref.pending_events == 0


# ------------------------------------------------- zero-delay FIFO order
def test_same_tick_events_keep_schedule_order():
    """Zero-delay events ride the FIFOs, delayed ones the heap; dispatch
    order must still be (time, priority, seq)."""
    sim = Simulator()
    order = []
    for tag in ("a", "b", "c"):
        ev = sim.event()
        ev.add_callback(lambda _e, t=tag: order.append(t))
        ev.succeed()  # zero-delay, priority 1
    t = sim.timeout(0.0)
    t.add_callback(lambda _e: order.append("t"))
    sim.run()
    assert order == ["a", "b", "c", "t"]


def test_urgent_kicks_preempt_same_tick_events():
    """Process bootstrap (priority 0) runs before ordinary zero-delay
    events scheduled earlier at the same instant."""
    sim = Simulator()
    order = []
    ev = sim.event()
    ev.add_callback(lambda _e: order.append("event"))
    ev.succeed()  # priority 1, scheduled first

    def proc():
        order.append("process")
        return
        yield  # pragma: no cover - makes this a generator

    sim.process(proc())  # bootstrap kick at priority 0, scheduled second
    sim.run()
    assert order == ["process", "event"]


def test_immediate_and_heap_interleave_by_time():
    sim = Simulator()
    order = []

    def stamp(tag):
        return lambda _e: order.append((sim.now, tag))

    sim.timeout(1.0).add_callback(stamp("late"))
    ev = sim.event()
    ev.add_callback(stamp("now"))
    ev.succeed()
    sim.run()
    assert order == [(0.0, "now"), (1.0, "late")]


# ----------------------------------------------------- callback removal
def test_remove_callback_tombstones_without_reorder():
    sim = Simulator()
    calls = []
    ev = sim.event()
    first = lambda _e: calls.append("first")  # noqa: E731
    ev.add_callback(first)
    ev.add_callback(lambda _e: calls.append("second"))
    ev.remove_callback(first)
    ev.succeed()
    sim.run()
    assert calls == ["second"]


def test_peak_pending_tracks_high_water_mark():
    sim = Simulator()
    for i in range(10):
        sim.timeout(float(i + 1))
    assert sim.pending_events == 10
    assert sim.peak_pending == 10
    sim.run()
    assert sim.pending_events == 0
    assert sim.peak_pending == 10


# ------------------------------------------------- one event per message
def test_call_later_is_one_event_ordered_by_lane():
    """Dispatch is the call itself; same-instant deliveries order by
    lane, after the instant's lane-0 (local) events."""
    sim = Simulator()
    order = []
    note = lambda tag, t: order.append((tag, t, sim.now))  # noqa: E731
    sim.call_later(1.0, note, "lane9", 1, lane=9)
    sim.call_later(1.0, note, "lane3", 2, lane=3)
    sim.timeout(1.0).add_callback(lambda _e: order.append("local"))
    sim.call_later(0.0, note, "now", 3)
    assert sim.pending_events == 4
    sim.run()
    assert order == [("now", 3, 0.0), "local",
                     ("lane3", 2, 1.0), ("lane9", 1, 1.0)]
    assert sim._nprocessed == 4


def test_reply_answered_or_expired_exactly_once():
    sim = Simulator()
    got = []

    def waiter(reply):
        got.append(((yield reply), sim.now))

    answered, expired = sim.reply(2.0), sim.reply(2.0)
    sim.process(waiter(answered))
    sim.process(waiter(expired))

    def answer():
        yield sim.timeout(0.5)
        answered.resolve(("resp", 7))
        answered.resolve(("resp", 8))       # a duplicate changes nothing
        yield sim.timeout(3.0)
        expired.resolve(("resp", 9))        # too late: already fired None
        answered.resolve(("resp", 10))

    sim.process(answer())
    sim.run()
    assert got == [(("resp", 7), 0.5), (None, 2.0)]
    assert sim._nswept == 1                 # answered's voided deadline
    assert sim.pending_events == 0


def test_an_answer_in_place_wakes_the_waiter_before_the_delivery_returns():
    sim = Simulator()
    got = []
    r = sim.reply(2.0)

    def waiter():
        got.append(((yield r), sim.now))

    def deliver(_a, _b):
        r.answer(("resp", 7))
        got.append("delivery returns")
        r.answer(("resp", 8))               # a duplicate changes nothing

    sim.process(waiter())
    sim.call_later(0.5, deliver, None, None, lane=3)
    sim.run()
    assert got == [(("resp", 7), 0.5), "delivery returns"]
    # The kick and the delivery; the answered deadline is swept.
    assert (sim._nprocessed, sim._nswept) == (2, 1)
    assert r.state is CANCELLED and sim.pending_events == 0


def test_start_runs_to_the_first_wait_and_restores_the_active_process():
    sim = Simulator()
    trail = []

    def child():
        trail.append(("child", sim.active_process.name, sim._nprocessed))
        yield sim.timeout(1.0)
        return "done"

    def parent():
        me = sim.active_process
        proc = sim.start(child(), name="kid")
        trail.append(("parent", sim.active_process is me, sim._nprocessed))
        return (yield proc)

    assert sim.run_process(sim.process(parent(), name="mum")) == "done"
    # The child's first segment ran inside the parent's event.
    assert trail == [("child", "kid", 1), ("parent", True, 1)]
    assert sim.active_process is None


def test_process_nobody_waits_on_finishes_without_an_event():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)
        return 42

    proc = sim.process(quick())
    sim.run()
    assert sim._nprocessed == 2             # bootstrap kick + the timeout
    assert proc.ok and proc.value == 42
    # Late interest is served inline, like any past event.
    late = []
    proc.add_callback(lambda ev: late.append(ev.value))

    def waiter():
        return (yield proc)

    assert sim.run_process(sim.process(waiter())) == 42
    assert late == [42]

    def boom():
        raise ValueError("unheard")
        yield  # pragma: no cover - makes this a generator

    failed = sim.process(boom())
    sim.run()
    assert not failed.ok and isinstance(failed.value, ValueError)


# --------------------------------------------------------- the fused loop
_ITEMS = st.lists(
    st.tuples(_DELAYS, st.sampled_from(["timeout", "later", "event",
                                        "process", "reply"]),
              st.integers(0, 3), _DELAYS),
    min_size=1, max_size=30)


def _program(sim, items, log):
    """Schedule ``items`` (and a mid-run mass answering of 150 slots,
    each its own timeout value); every dispatch appends ``(now, tag)`` to
    ``log``."""
    doomed = [sim.reply(0.75 + 0.001 * i) for i in range(150)]

    def note(tag, _b=None):
        log.append((sim.now, tag))

    def massacre(_a, _b):
        note("massacre")
        for r in doomed:
            r.resolve(True)

    sim.call_later(0.6, massacre, None, None)
    for i, (delay, kind, lane, extra) in enumerate(items):
        if kind == "timeout":
            sim.timeout(delay).add_callback(lambda _e, i=i: note(i))
        elif kind == "later":
            sim.call_later(delay, note, i, None, lane=lane)
        elif kind == "event":
            ev = sim.event()
            ev.add_callback(lambda _e, i=i: note(i))
            sim.call_later(delay, lambda ev, _b: ev.succeed(), ev, None)
        elif kind == "reply":
            r = sim.reply(delay + extra)
            r.add_callback(lambda e, i=i: note((i, e.value)))
            if lane % 2:                    # answered before (or as) it fires
                sim.call_later(delay, lambda r, _b: r.resolve("x"), r, None)
        else:
            def proc(i=i, delay=delay, extra=extra):
                note((i, "a"))
                yield sim.timeout(delay)
                note((i, "b"))
                if extra:
                    sim.start(proc(i + 1000, extra, 0.0))
            sim.process(proc())


@given(_ITEMS, st.sampled_from(["run", "run_until", "windows"]))
@settings(max_examples=120, deadline=None)
def test_fused_loop_dispatches_exactly_what_repeated_step_does(items, how):
    ref, fused = Simulator(), Simulator()
    ref_log, fused_log = [], []
    _program(ref, items, ref_log)
    _program(fused, items, fused_log)
    while ref.pending_events:
        ref.step()
    if how == "run":
        fused.run(until=0.5)                # inclusive horizon, mid-run
        assert fused.now == 0.5
        assert fused_log == [e for e in ref_log if e[0] <= 0.5]
    elif how == "run_until":
        marker = fused.timeout(0.7)         # shares its instant with nothing
        fused.run_until([marker])
        assert fused.now == 0.7 and not fused.window_break
    else:
        for edge in (0.25, 0.5, 0.75, 2.0):
            fused.run_window(edge)          # exclusive edges
    fused.run()
    if how == "run_until":
        # The marker consumed one seq and one event in the fused sim.
        assert fused._nprocessed == ref._nprocessed + 1
    else:
        assert fused._nprocessed == ref._nprocessed
    assert fused_log == ref_log
    assert (fused._nswept, fused.now) == (ref._nswept, ref.now)
    assert fused.pending_events == ref.pending_events == 0


_LANES = st.integers(0, 3)


# ------------------------------------------- urgent callbacks (call_soon)
def test_call_soon_preempts_same_tick_events_like_a_process_kick():
    sim = Simulator()
    order = []
    note = lambda a, b: order.append((a, b, sim.now))  # noqa: E731
    sim.call_later(0.0, note, "ordinary", 1)
    sim.call_soon(note, "urgent", 2)

    def proc():
        order.append("process")
        return
        yield  # pragma: no cover - makes this a generator

    sim.process(proc())
    assert sim.pending_events == 3
    sim.run()
    assert order == [("urgent", 2, 0.0), "process", ("ordinary", 1, 0.0)]
    assert sim._nprocessed == 3


_URGENT_ITEMS = st.lists(
    st.tuples(_DELAYS, st.sampled_from(["later", "timeout", "urgent",
                                        "urgent", "nest"]), _LANES),
    min_size=1, max_size=20)


def _urgent_program(sim, items, log, as_process):
    """Schedule ``items``; every piece of urgent work is a process that
    never waits (``as_process``) or one ``call_soon``.  It logs ``(now,
    who)`` and may itself schedule same-instant work of both kinds."""

    def note(who, _b=None):
        log.append((sim.now, who))

    def body(who, nest):
        note(who)
        if nest:
            sim.call_later(0.0, note, (who, "after"), None)
            urgent((who, "child"), False)
            sim.timeout(0.5).add_callback(lambda _e: note((who, "late")))

    def urgent(who, nest):
        if not as_process:
            sim.call_soon(body, who, nest)
            return

        def gen():
            body(who, nest)
            return
            yield  # pragma: no cover - makes this a generator

        sim.process(gen())

    for i, (delay, kind, lane) in enumerate(items):
        if kind == "later":
            sim.call_later(delay, note, i, None, lane=lane)
        elif kind == "timeout":
            sim.timeout(delay).add_callback(lambda _e, i=i: note(i))
        elif lane == 0:                 # straight from the building code
            urgent(i, kind == "nest")
        else:                           # from inside a delivery
            sim.call_later(delay, urgent, i, kind == "nest", lane=lane)


@given(_URGENT_ITEMS, st.sampled_from(["run", "step", "windows"]),
       st.lists(st.one_of(_DELAYS, st.floats(0.0, 3.0)), max_size=6))
@settings(max_examples=150, deadline=None)
def test_call_soon_dispatches_exactly_where_a_process_kick_does(
        items, how, edges):
    ref, soon = Simulator(), Simulator()
    ref_log, soon_log = [], []
    _urgent_program(ref, items, ref_log, as_process=True)
    _urgent_program(soon, items, soon_log, as_process=False)
    while ref.pending_events:
        ref.step()
    if how == "step":
        while soon.pending_events:
            soon.step()
    else:
        for edge in sorted(edges) * (how == "windows") + [float("inf")]:
            soon.run_window(edge)
    assert soon_log == ref_log
    assert (soon._nprocessed, soon._seq, soon.peak_pending, soon.now) == \
        (ref._nprocessed, ref._seq, ref.peak_pending, ref.now)
    assert soon.pending_events == ref.pending_events == 0


# ------------------------------------- a one-branch gather, in the caller
def _reference_gather(sim, gens):
    """``gather`` as it stood before one branch ran in the caller's
    process: a process per branch and a ``gather-done`` event, for any
    number of branches.  Kept as it was, as the reference ``gather`` is
    held to."""
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


_STEP = st.tuples(st.sampled_from(["timeout", "zero", "answered", "delivered",
                                   "expired", "soon", "later0", ""]), _DELAYS)
_BRANCH = st.tuples(st.lists(_STEP, max_size=3),
                    st.sampled_from(["return", "return", "raise", "nest",
                                     "pair"]))
_CALLERS = st.lists(
    st.tuples(_DELAYS, st.booleans(),
              st.lists(st.tuples(_STEP, _BRANCH), min_size=1, max_size=3)),
    min_size=1, max_size=4)
_BACKGROUND = st.lists(
    st.tuples(st.sampled_from(["timeout", "soon", "event", "process"]),
              _DELAYS),
    max_size=8)


def _gather_program(sim, callers, background, log, gather_fn):
    """Callers that each run one-branch gathers, among background work
    landing on the same instants; every step logs ``(now, who)``.  What
    a caller or branch waits on has no other waiter."""

    def note(who, _b=None):
        log.append((sim.now, who))

    def step(kind, delay, who):
        if kind == "timeout":
            yield sim.timeout(delay)
        elif kind == "zero":
            ev = sim.event()
            ev.succeed(who)
            yield ev
        elif kind in ("answered", "delivered"):
            r = sim.reply(delay + 0.25)
            if kind == "answered":
                sim.call_later(delay, lambda r, _b: r.resolve("x"), r, None)
            else:                       # in place, from a laned delivery
                sim.call_later(delay, lambda r, _b: r.answer("x"), r, None,
                               lane=3)
            yield r
        elif kind == "expired":
            yield sim.reply(delay)
        elif kind == "soon":
            sim.call_soon(note, (who, "soon"), None)
        elif kind == "later0":
            sim.call_later(0.0, note, (who, "later0"), None)
        note(who)

    def branch(who, steps, end, depth):
        for k, (kind, delay) in enumerate(steps):
            yield from step(kind, delay, (who, k))
        if end == "raise":
            raise ValueError(who)
        if end == "nest" and depth < 2:
            return (yield from gather_fn(
                sim, [branch((who, "in"), steps, "return", depth + 1)]))
        if end == "pair":
            return (yield from gather_fn(sim, [
                branch((who, "a"), steps[:1], "return", depth + 1),
                branch((who, "b"), steps[1:], "return", depth + 1)]))
        return who

    def caller(c, plan):
        for g, ((kind, delay), (steps, end)) in enumerate(plan):
            yield from step(kind, delay, (c, g, "pre"))
            try:
                got = yield from gather_fn(sim, [branch((c, g), steps, end, 0)])
            except ValueError as exc:
                got = ("raised", exc.args[0])
            note((c, g, "got", got))

    procs = []

    def start(c, plan):
        procs.append(sim.process(caller(c, plan)))

    for c, (delay, from_callback, plan) in enumerate(callers):
        if from_callback:
            sim.call_later(delay, start, c, plan)
        else:
            start(c, plan)

    def bg(i, delay):
        note((i, "bg"))
        yield sim.timeout(delay)
        note((i, "bg", "after"))

    for i, (kind, delay) in enumerate(background):
        if kind == "timeout":
            sim.timeout(delay).add_callback(lambda _e, i=i: note(i))
        elif kind == "soon":
            sim.call_later(delay, lambda i, _b: sim.call_soon(note, i, None),
                           i, None)
        elif kind == "event":
            ev = sim.event()
            ev.add_callback(lambda _e, i=i: note(i))
            sim.call_later(delay, lambda ev, _b: ev.succeed(), ev, None)
        else:
            sim.process(bg(i, delay))
    return procs


@given(_CALLERS, _BACKGROUND, st.sampled_from(["run", "step", "windows"]))
@settings(max_examples=300, deadline=None)
def test_one_branch_gather_dispatches_what_a_process_per_branch_did(
        callers, background, how):
    """Same steps at the same instants in the same order, same results
    and exceptions, same deadlines swept — with the three events a
    one-branch process cost gone whenever nothing was queued ahead of
    them, and taken where something was."""
    ref, one = Simulator(), Simulator()
    ref_log, one_log = [], []
    ref_procs = _gather_program(ref, callers, background, ref_log,
                                _reference_gather)
    one_procs = _gather_program(one, callers, background, one_log, gather)
    while ref.pending_events:
        ref.step()
    if how == "step":
        while one.pending_events:
            one.step()
    else:
        for edge in [0.25, 0.5, 1.0] * (how == "windows") + [float("inf")]:
            one.run_window(edge)
    assert all(p.ok for p in ref_procs + one_procs)
    assert len(one_procs) == len(callers)
    assert one_log == ref_log
    assert (one._nswept, one.now) == (ref._nswept, ref.now)
    assert one._nprocessed <= ref._nprocessed
    assert one.peak_pending <= ref.peak_pending
    assert one.pending_events == ref.pending_events == 0
