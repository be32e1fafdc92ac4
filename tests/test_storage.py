"""Tests for disk, RAID-0, and local filesystem models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.storage import DISK_SPECS, Disk, LocalFS, NoSpace, Raid0
from repro.storage.disk import MB, DiskSpec
from repro.storage.filesystem import SATURATION_KNEE


def cheetah(sim):
    return Disk(sim, DISK_SPECS["cheetah-st373405"])


def run(sim, gen):
    return sim.run_process(sim.process(gen))


def test_disk_random_io_includes_positioning():
    sim = Simulator()
    disk = cheetah(sim)
    spec = disk.spec

    def proc():
        yield disk.io(1 * MB)
        return sim.now

    t = run(sim, proc())
    expected = spec.seek_s + spec.half_rotation_s + MB / spec.transfer_bps
    assert t == pytest.approx(expected)


def test_disk_sequential_io_skips_positioning():
    sim = Simulator()
    disk = cheetah(sim)

    def proc():
        yield disk.io(1 * MB, sequential=True)
        return sim.now

    assert run(sim, proc()) == pytest.approx(MB / disk.spec.transfer_bps)


def test_disk_fifo_queueing():
    sim = Simulator()
    disk = cheetah(sim)
    t1 = disk.service_time(MB)
    done = []

    def proc():
        yield disk.io(1 * MB)
        done.append(sim.now)

    sim.process(proc())
    sim.process(proc())
    sim.run()
    assert done[1] == pytest.approx(2 * t1)


def test_disk_busy_accounting():
    sim = Simulator()
    disk = cheetah(sim)

    def proc():
        yield disk.io(1 * MB)

    run(sim, proc())
    assert disk.busy_accum == pytest.approx(disk.service_time(MB))
    assert disk.bytes_done == MB
    assert disk.requests == 1


def test_raid0_parallel_speedup():
    sim = Simulator()
    disks = [cheetah(sim) for _ in range(3)]
    raid = Raid0(sim, disks)

    def proc():
        yield raid.io(9 * MB, sequential=True)
        return sim.now

    t_raid = run(sim, proc())
    single = cheetah(Simulator()).service_time(9 * MB, sequential=True)
    # 3-way striping: roughly 3x faster than one disk.
    assert t_raid < single / 2


def test_raid0_capacity():
    sim = Simulator()
    raid = Raid0(sim, [cheetah(sim) for _ in range(3)])
    assert raid.capacity == 3 * DISK_SPECS["cheetah-st373405"].capacity


def test_raid0_single_member_passthrough():
    sim = Simulator()
    disk = cheetah(sim)
    raid = Raid0(sim, [disk])

    def proc():
        yield raid.io(MB)
        return sim.now

    assert run(sim, proc()) == pytest.approx(disk.service_time(MB))


def test_raid0_sub_stripe_requests_rotate_over_members():
    """A request of at most one stripe unit is one member's, whole, and
    the rotation continues where striping would have left it — byte for
    byte what splitting into stripe units does."""
    sim = Simulator()
    disks = [cheetah(sim) for _ in range(3)]
    raid = Raid0(sim, disks)

    def proc():
        yield raid.io(4096)
        yield raid.io(raid.stripe)
        yield raid.io(raid.stripe + 1)       # two units: members 2 and 0
        yield raid.io(12 * 1024)
        return sim.now

    run(sim, proc())
    assert [d.bytes_done for d in disks] == [4096 + 1,
                                             raid.stripe + 12 * 1024,
                                             raid.stripe]
    assert [d.requests for d in disks] == [2, 2, 1]


def _dealt_unit_by_unit(nbytes, stripe, n, first):
    """The reference ``Raid0.io`` computes in closed form: deal the
    request out one stripe unit at a time, round robin from ``first``."""
    per_disk = [0] * n
    remaining, i = nbytes, first
    while remaining > 0:
        chunk = min(stripe, remaining)
        per_disk[i % n] += chunk
        remaining -= chunk
        i += 1
    return per_disk, i % n


@given(st.lists(st.tuples(st.integers(0, 70), st.floats(0, 1)),
                min_size=1, max_size=6),
       st.sampled_from([1, 7, 4096, 64 * 1024]), st.integers(2, 5),
       st.integers(0, 4))
@settings(max_examples=200, deadline=None)
def test_raid0_split_is_the_unit_by_unit_deal(sizes, stripe, n, first):
    sim = Simulator()
    disks = [cheetah(sim) for _ in range(n)]
    raid = Raid0(sim, disks, stripe=stripe)
    raid._next = first = first % n
    for units, part in sizes:               # up to 70 units and a tail
        nbytes = units * stripe + int(part * (stripe - 1))
        before = [(d.bytes_done, d.requests) for d in disks]
        per_disk, nxt = _dealt_unit_by_unit(nbytes, stripe, n, first)
        raid.io(nbytes)
        sim.run()
        got = [(d.bytes_done - b, d.requests - r)
               for d, (b, r) in zip(disks, before)]
        if nbytes == 0:     # one positioning on the member next in turn
            per_disk, want_reqs = [0] * n, [int(k == first) for k in range(n)]
        else:
            want_reqs = [int(c > 0) for c in per_disk]
        assert got == list(zip(per_disk, want_reqs))
        assert raid._next == nxt
        first = nxt


def test_raid0_requires_members():
    with pytest.raises(ValueError):
        Raid0(Simulator(), [])


# ------------------------------------------- one event per storage request
def _reference_disk_io(disk, nbytes, sequential=False):
    """``Disk.io`` as it stood before a request that ends at a known
    instant was one event: the ledger (now ``Disk.book``), then a timeout
    at completion — or, on a media error, a timeout whose callback fails
    a second event.  Kept as it was, as the reference ``Disk.io`` and
    ``Raid0.io`` are held to."""
    sim = disk.sim
    done, exc = disk.book(nbytes, sequential)
    if exc is None:
        return sim.timeout(done - sim.now)
    ev = sim.event("disk-io-error")
    sim.timeout(done - sim.now).add_callback(
        lambda _t, e=ev, x=exc: e.fail(x))
    return ev


def _reference_raid_io(raid, nbytes, sequential=False):
    """``Raid0.io`` as it stood: an event per member
    (:func:`_reference_disk_io`), joined by an ``AllOf``."""
    disks, stripe = raid.disks, raid.stripe
    if len(disks) == 1:
        return _reference_disk_io(disks[0], nbytes, sequential)
    if 0 < nbytes <= stripe:
        i = raid._next
        raid._next = (i + 1) % len(disks)
        return raid.sim.all_of(
            (_reference_disk_io(disks[i], nbytes, sequential),))
    n, first = len(disks), raid._next
    units, tail = divmod(nbytes, stripe)
    laps, extra = divmod(units, n)
    per_disk = [laps * stripe] * n
    for k in range(first, first + extra):
        per_disk[k % n] += stripe
    per_disk[(first + units) % n] += tail
    raid._next = (first + units + (tail > 0)) % n
    parts = [_reference_disk_io(disk, count, sequential)
             for disk, count in zip(disks, per_disk) if count > 0]
    if not parts:
        return _reference_disk_io(disks[raid._next], 0, sequential)
    return raid.sim.all_of(parts)


#: Positioning 0.75 s and 0.25 s per 16 KB: every completion falls on a
#: multiple of 0.25 s, where the racing timers and deliveries are.
_EXACT = DiskSpec("exact", rpm=60, seek_s=0.25, transfer_bps=64 * 1024,
                  capacity=1 << 40)
_AT = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0])
_AHEAD = st.sampled_from(["", "soon", "later0", "both"])
_STORAGE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("io"), _AT, st.integers(0, 12), st.booleans(),
                  st.sampled_from(["process", "callback", "race"])),
        st.tuples(st.just("timer"), _AT, _AHEAD),
        st.tuples(st.just("delivery"), _AT, _AHEAD),
        st.tuples(st.just("fault"), _AT, st.sampled_from([0, 1, 2, 3, None]),
                  st.sampled_from([0.0, 0.5, 0.5, 1.0]),
                  st.sampled_from([1.0, 2.0]))),
    min_size=1, max_size=20)


def _storage_program(sim, members, stripe, backlog, ops, log, io):
    """A RAID-0 of ``members`` drives (one: the plain ``Disk.io`` path)
    with ``backlog`` units already queued, serving ``ops``: requests of
    0–12 16 KB units, waited on by a process or a callback, among lane-0
    timers and deliveries at the same instants that queue work in either
    FIFO; a ``race`` request adds a lane-0 timer and a delivery at its
    busiest member's finish.  Faults, on one member or (as the fault
    plane installs them) on all, make members fail some requests and
    slow down.  Every wake-up logs ``(now, who)``."""
    import random
    from dataclasses import replace

    from repro.storage.disk import DiskFaultState, DiskIOError

    # Named apart, so an error says which member it came from.
    disks = [Disk(sim, replace(_EXACT, name=f"m{j}")) for j in range(members)]
    raid = Raid0(sim, disks, stripe=stripe)
    for disk, units in zip(disks, backlog):
        disk.book(units * 16 * 1024, True)

    def note(who, _b=None):
        log.append((sim.now, who))

    def racer(who, ahead):
        note(who)
        if ahead in ("soon", "both"):
            sim.call_soon(note, (who, "soon"), None)
        if ahead in ("later0", "both"):
            sim.call_later(0.0, note, (who, "later0"), None)

    def waiter(i, ev):
        try:
            yield ev
            note((i, "done"))
        except DiskIOError as exc:
            note((i, "error", str(exc)))

    def issue(i, op):
        _kind, _at, units, sequential, wait = op
        ev = io(raid, units * 16 * 1024, sequential)
        if wait == "callback":
            # (Not a success's value: the join's was a dict of the
            # members' ``None``s, which nothing reads.)
            ev.add_callback(lambda e: note(
                (i, e.state, str(e.value) if e.state == "failed" else "")))
        else:
            sim.process(waiter(i, ev))
        if wait == "race":
            t = max(d._ready_at for d in disks) - sim.now
            sim.timeout(t).add_callback(lambda _e: racer((i, "timer"), "both"))
            sim.call_later(t, racer, (i, "delivery"), "later0", lane=2)

    def fault(i, op):
        _kind, _at, j, rate, slowdown = op
        target = raid if j is None else disks[j % members]
        if rate == 0.0 and slowdown == 1.0:
            target.clear_fault()
        else:
            target.set_fault(DiskFaultState(
                rng=random.Random(i), error_rate=rate, slowdown=slowdown))

    for i, op in enumerate(ops):
        kind, at = op[0], op[1]
        if kind == "io":
            sim.call_later(at, issue, i, op)
        elif kind == "timer":
            sim.timeout(at).add_callback(
                lambda _e, i=i, ahead=op[2]: racer((i, "timer"), ahead))
        elif kind == "delivery":
            sim.call_later(at, racer, (i, "delivery"), op[2], lane=1 + i % 3)
        else:
            sim.call_later(at, fault, i, op)
    # The clock's last stop: after a failure the reference still pops the
    # other members' timeouts.
    sim.timeout(99.0).add_callback(lambda _e: note("end"))
    return disks


@given(_STORAGE_OPS, st.integers(1, 4),
       st.sampled_from([16 * 1024, 32 * 1024, 64 * 1024]),
       st.lists(st.integers(0, 6), min_size=4, max_size=4),
       st.sampled_from(["run", "step", "windows"]))
@settings(max_examples=300, deadline=None)
def test_a_storage_request_is_one_event_where_its_member_events_were(
        ops, members, stripe, backlog, how):
    """Same wake-ups at the same instants in the same order, the same
    errors from the same members, the same ledgers — with a request's
    member events and its join gone, and the join's slot taken only when
    something is queued ahead of it."""
    ref, one = Simulator(), Simulator()
    ref_log, one_log = [], []
    ref_disks = _storage_program(ref, members, stripe, backlog, ops, ref_log,
                                 _reference_raid_io)
    one_disks = _storage_program(one, members, stripe, backlog, ops, one_log,
                                 Raid0.io)
    while ref.pending_events:
        ref.step()
    if how == "step":
        while one.pending_events:
            one.step()
    else:
        for edge in [0.75, 1.5, 2.0, 3.0] * (how == "windows") + [
                float("inf")]:
            one.run_window(edge)
    assert one_log == ref_log
    assert one.now == ref.now
    ledger = lambda d: (d._ready_at, d.busy_accum, d.bytes_done,  # noqa: E731
                        d.bytes_failed, d.requests, d.io_errors)
    assert [ledger(d) for d in one_disks] == [ledger(d) for d in ref_disks]
    assert one._nprocessed <= ref._nprocessed
    assert one.peak_pending <= ref.peak_pending
    assert one.pending_events == ref.pending_events == 0


def make_fs(capacity=100 * MB):
    sim = Simulator()
    fs = LocalFS(sim, cheetah(sim), capacity=capacity)
    return sim, fs


def test_fs_create_write_read_roundtrip():
    sim, fs = make_fs()

    def proc():
        yield from fs.create("seg1")
        yield from fs.write("seg1", 0, 4096)
        yield from fs.read("seg1", 0, 4096)
        return fs.size_of("seg1")

    assert run(sim, proc()) == 4096
    assert fs.used == 4096


def test_fs_duplicate_create_rejected():
    sim, fs = make_fs()

    def proc():
        yield from fs.create("a")
        with pytest.raises(FileExistsError):
            yield from fs.create("a")

    run(sim, proc())


def test_fs_read_past_eof_rejected():
    sim, fs = make_fs()

    def proc():
        yield from fs.create("a")
        yield from fs.write("a", 0, 100)
        with pytest.raises(ValueError):
            yield from fs.read("a", 50, 100)

    run(sim, proc())


def test_fs_unlink_frees_space():
    sim, fs = make_fs()

    def proc():
        yield from fs.create("a")
        yield from fs.write("a", 0, 1 * MB)
        assert fs.used == MB
        yield from fs.unlink("a")

    run(sim, proc())
    assert fs.used == 0
    assert not fs.exists("a")


def test_fs_unlink_missing_raises():
    sim, fs = make_fs()

    def proc():
        with pytest.raises(FileNotFoundError):
            yield from fs.unlink("ghost")

    run(sim, proc())


def test_fs_nospace():
    sim, fs = make_fs(capacity=1 * MB)

    def proc():
        yield from fs.create("a")
        with pytest.raises(NoSpace):
            yield from fs.write("a", 0, 2 * MB)

    run(sim, proc())
    # Failed write must not leak space or logical size.
    assert fs.used == 0
    assert fs.size_of("a") == 0


def test_fs_sparse_truncate_costs_no_space():
    """A shadow copy is a blank file truncated to its base's size
    (``set_size``, no device I/O)."""
    sim, fs = make_fs()

    def proc():
        yield from fs.create("shadow")
        fs.set_size("shadow", 10 * MB)

    run(sim, proc())
    assert fs.size_of("shadow") == 10 * MB
    assert fs.used == 0


def test_fs_write_into_sparse_allocates():
    sim, fs = make_fs()

    def proc():
        yield from fs.create("shadow")
        fs.set_size("shadow", 10 * MB)
        yield from fs.write("shadow", 5 * MB, 1 * MB)

    run(sim, proc())
    assert fs.used == MB
    assert fs.size_of("shadow") == 10 * MB


def test_fs_truncate_shrink_frees():
    sim, fs = make_fs()

    def proc():
        yield from fs.create("a")
        yield from fs.write("a", 0, 4 * MB)
        fs.set_size("a", 1 * MB)

    run(sim, proc())
    assert fs.used == MB
    assert fs.size_of("a") == MB


def test_fs_near_full_writes_slow_down():
    sim, fs = make_fs(capacity=10 * MB)

    def proc():
        yield from fs.create("a")
        # Fill past the knee.
        target = int(10 * MB * (SATURATION_KNEE + 0.1))
        yield from fs.write("a", 0, target, sequential=True)
        t0 = sim.now
        yield from fs.write("a", target, 1024 * 512, sequential=True)
        slow = sim.now - t0
        return slow

    slow = run(sim, proc())
    fast = fs.device.service_time(1024 * 512, sequential=True)
    assert slow > fast * 1.2


def test_fs_utilization():
    sim, fs = make_fs(capacity=10 * MB)

    def proc():
        yield from fs.create("a")
        yield from fs.write("a", 0, 5 * MB)

    run(sim, proc())
    assert fs.utilization == pytest.approx(0.5)
    assert fs.available == 5 * MB
