"""Tests for the versioned, copy-on-write segment store."""

import random

import pytest

from repro.core.segment import SegmentError, SegmentStore
from repro.sim import Simulator
from repro.storage import DISK_SPECS, Disk, DiskFaultState, DiskIOError, LocalFS

MB = 1 << 20


def make_store(ttl=300.0, capacity=256 * MB):
    sim = Simulator()
    fs = LocalFS(sim, Disk(sim, DISK_SPECS["ultrastar-dk32ej"]), capacity=capacity)
    return sim, SegmentStore(sim, fs, shadow_ttl=ttl)


def run(sim, gen):
    return sim.run_process(sim.process(gen))


def test_create_write_commit_read_roundtrip():
    sim, store = make_store()

    def proc():
        yield from store.create(0xA, 1)
        yield from store.write(0xA, 1, 0, 5, data=b"hello")
        yield from store.commit(0xA, 1)
        data = yield from store.read(0xA, 1, 0, 5)
        return data

    assert run(sim, proc()) == b"hello"


def test_committed_version_is_immutable():
    sim, store = make_store()

    def proc():
        yield from store.create(0xA, 1)
        yield from store.commit(0xA, 1)
        with pytest.raises(SegmentError):
            yield from store.write(0xA, 1, 0, 4, data=b"nope")

    run(sim, proc())


def test_shadow_resolves_to_base():
    sim, store = make_store()

    def proc():
        yield from store.create(0xA, 1)
        yield from store.write(0xA, 1, 0, 10, data=b"0123456789")
        yield from store.commit(0xA, 1)
        yield from store.create_shadow(0xA, 1)
        yield from store.write(0xA, 2, 3, 4, data=b"WXYZ")
        new = yield from store.read(0xA, 2, 0, 10)
        old = yield from store.read(0xA, 1, 0, 10)
        return new, old

    new, old = run(sim, proc())
    assert new == b"012WXYZ789"
    assert old == b"0123456789"  # base version untouched


def test_cow_chain_through_ancestors():
    sim, store = make_store()

    def proc():
        yield from store.create(0xB, 1)
        yield from store.write(0xB, 1, 0, 8, data=b"AAAAAAAA")
        yield from store.commit(0xB, 1)
        yield from store.create_shadow(0xB, 1)
        yield from store.write(0xB, 2, 0, 2, data=b"BB")
        yield from store.commit(0xB, 2)
        yield from store.create_shadow(0xB, 2)
        yield from store.write(0xB, 3, 4, 2, data=b"CC")
        yield from store.commit(0xB, 3)
        return (yield from store.read(0xB, 3, 0, 8))

    # v3 reads: BB from v2, AA from v1, CC from v3, AA from v1.
    assert run(sim, proc()) == b"BBAACCAA"


def test_resolve_reports_serving_versions():
    sim, store = make_store()

    def proc():
        yield from store.create(0xC, 1)
        yield from store.write(0xC, 1, 0, 100)
        yield from store.commit(0xC, 1)
        yield from store.create_shadow(0xC, 1)
        yield from store.write(0xC, 2, 40, 20)
        return store.resolve(0xC, 2, 0, 100)

    pieces = run(sim, proc())
    assert pieces == [(1, 0, 40), (2, 40, 60), (1, 60, 100)]


def test_shadow_of_uncommitted_rejected():
    sim, store = make_store()

    def proc():
        yield from store.create(0xD, 1)
        with pytest.raises(SegmentError):
            yield from store.create_shadow(0xD, 1)

    run(sim, proc())


def test_shadow_expiration():
    sim, store = make_store(ttl=10.0)

    def proc():
        yield from store.create(0xE, 1)
        yield from store.write(0xE, 1, 0, 4)
        yield from store.commit(0xE, 1)
        yield from store.create_shadow(0xE, 1)
        yield sim.timeout(9)
        not_yet = store.expire_shadows()
        yield sim.timeout(2)
        expired = store.expire_shadows()
        return not_yet, expired

    not_yet, expired = run(sim, proc())
    assert not_yet == []
    assert expired == [(0xE, 2)]


def test_committed_segments_returns_latest_only():
    sim, store = make_store()

    def proc():
        yield from store.create(0xF, 1)
        yield from store.commit(0xF, 1)
        yield from store.create_shadow(0xF, 1)
        yield from store.commit(0xF, 2)
        yield from store.create(0x10, 1)
        yield from store.commit(0x10, 1)

    run(sim, proc())
    segs = {(s.segid, s.version) for s in store.committed_segments()}
    assert segs == {(0xF, 2), (0x10, 1)}
    assert store.latest_committed(0xF).version == 2


def test_drop_and_delete_segment():
    sim, store = make_store()

    def proc():
        yield from store.create(0x11, 1)
        yield from store.commit(0x11, 1)
        yield from store.create_shadow(0x11, 1)
        yield from store.delete_segment(0x11)

    run(sim, proc())
    assert store.versions_of(0x11) == []
    assert store.fs.used == 0


def test_ingest_full_replica():
    sim, store = make_store()

    def proc():
        yield from store.apply_diff(0x12, 5, 1024, replication_degree=3)

    run(sim, proc())
    seg = store.get(0x12, 5)
    assert seg.committed and seg.size == 1024
    assert seg.replication_degree == 3


def test_ingest_duplicate_rejected():
    sim, store = make_store()

    def proc():
        yield from store.apply_diff(0x13, 1, 10)
        with pytest.raises(SegmentError):
            yield from store.apply_diff(0x13, 1, 10)

    run(sim, proc())


def test_apply_diff_after_a_disk_error_leaves_nothing_behind():
    """A diff sync that dies on the disk must unlink its native file and
    give back the blocks it booked: otherwise every later sync of that
    version fails to create the file and the replica stays stale."""
    sim, store = make_store()
    disk = store.fs.device

    def proc():
        yield from store.create(0x1A, 1)
        yield from store.write(0x1A, 1, 0, 8, data=b"AAAAAAAA")
        yield from store.commit(0x1A, 1)
        used = store.fs.used
        disk.set_fault(DiskFaultState(rng=random.Random(0), error_rate=1.0))
        with pytest.raises(DiskIOError):
            yield from store.apply_diff(0x1A, 2, 8, [(2, 4, b"BB")])
        assert store.get(0x1A, 2) is None
        assert store.fs.used == used
        disk.clear_fault()
        yield from store.apply_diff(0x1A, 2, 8, [(2, 4, b"BB")])
        return (yield from store.read(0x1A, 2, 0, 8))

    assert run(sim, proc()) == b"AABBAAAA"
    assert store.latest_committed(0x1A).version == 2


def test_consolidate_keeps_latest_and_preserves_content():
    sim, store = make_store()

    def proc():
        yield from store.create(0x15, 1)
        yield from store.write(0x15, 1, 0, 8, data=b"11111111")
        yield from store.commit(0x15, 1)
        for v, payload in ((2, b"22"), (3, b"33"), (4, b"44")):
            yield from store.create_shadow(0x15, v - 1)
            yield from store.write(0x15, v, (v - 2) * 2, 2, data=payload)
            yield from store.commit(0x15, v)
        yield from store.consolidate(0x15, keep=2)
        return (yield from store.read(0x15, 4, 0, 8))

    data = run(sim, proc())
    assert store.versions_of(0x15) == [3, 4]
    assert data == b"22334411"[:8]  # writes at 0,2,4 over ones


def test_read_past_end_rejected():
    sim, store = make_store()

    def proc():
        yield from store.create(0x16, 1)
        yield from store.write(0x16, 1, 0, 10)
        yield from store.commit(0x16, 1)
        with pytest.raises(SegmentError):
            yield from store.read(0x16, 1, 5, 10)

    run(sim, proc())


def test_synthetic_reads_return_none():
    """Pure-synthetic ranges come back as None (no giant zero buffers)."""
    sim, store = make_store()

    def proc():
        yield from store.create(0x17, 1)
        yield from store.write(0x17, 1, 0, 4)  # no data supplied
        yield from store.commit(0x17, 1)
        return (yield from store.read(0x17, 1, 0, 4))

    assert run(sim, proc()) is None


def test_mixed_literal_synthetic_read_zero_fills():
    sim, store = make_store()

    def proc():
        yield from store.create(0x19, 1)
        yield from store.write(0x19, 1, 0, 4)            # synthetic
        yield from store.write(0x19, 1, 4, 2, data=b"XY")
        yield from store.commit(0x19, 1)
        return (yield from store.read(0x19, 1, 0, 6))

    assert run(sim, proc()) == b"\x00\x00\x00\x00XY"


def test_bytes_stored_accounting():
    sim, store = make_store()

    def proc():
        yield from store.create(0x18, 1)
        yield from store.write(0x18, 1, 0, 1000)
        yield from store.write(0x18, 1, 500, 1000)  # overlapping

    run(sim, proc())
    assert store.bytes_stored() == 1500
