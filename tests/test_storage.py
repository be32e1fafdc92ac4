"""Tests for disk, RAID-0, and local filesystem models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.storage import DISK_SPECS, Disk, LocalFS, NoSpace, Raid0
from repro.storage.disk import MB
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
