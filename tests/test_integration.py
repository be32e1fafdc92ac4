"""End-to-end integration tests: full deployments, real data paths."""

import pytest

from repro.cluster import NodeSpec, small_cluster
from repro.core import SorrentoConfig, SorrentoDeployment
from repro.core.client import CommitConflict, SorrentoError
from repro.core.params import SorrentoParams
from repro.core.segment import SYNTHETIC

KB = 1 << 10
MB = 1 << 20


def deploy(n_storage=4, n_compute=2, degree=1, seed=1, **param_overrides):
    params = SorrentoParams(default_degree=degree, **param_overrides)
    spec = small_cluster(n_storage, n_compute=n_compute)
    dep = SorrentoDeployment(spec, SorrentoConfig(params=params, seed=seed))
    dep.warm_up()
    return dep


def test_write_read_roundtrip_small_attached():
    dep = deploy()
    client = dep.client_on("c00")
    payload = b"hello sorrento" * 10

    def writer():
        fh = yield from client.open("/f.txt", "w", create=True)
        yield from client.write(fh, 0, len(payload), data=payload)
        version = yield from client.close(fh)
        return version

    def reader():
        fh = yield from client.open("/f.txt", "r")
        data = yield from client.read(fh, 0, len(payload))
        yield from client.close(fh)
        return data

    assert dep.run(writer()) == 1
    assert dep.run(reader()) == payload


@pytest.mark.parametrize("via", ["client", "posix"])
def test_size_only_attached_write_stays_size_only(via):
    """The content model on the attached path: a write that supplies no
    bytes records a length and nothing else — in the handle, in the
    commit's meta and on every index-segment replica.  The ``posix`` case
    writes the way a UNIX caller does, in appends at a running offset,
    and checks that a reopen sees the same size."""
    dep = deploy(degree=2)
    client = dep.client_on("c00")

    def session():
        fh = yield from client.open("/s", "w", create=True)
        if via == "posix":
            for offset in range(0, 12 * KB, 4 * KB):
                yield from client.write(fh, offset, 4 * KB)
        else:
            yield from client.write(fh, 0, 12 * KB)
        assert fh.attached is None
        size = fh.size
        yield from client.close(fh)
        fh = yield from client.open("/s", "r")
        if via == "posix":
            assert fh.size == size
        data = yield from client.read(fh, 0, 12 * KB)
        yield from client.close(fh)
        return size, data, fh.fileid

    size, data, fileid = dep.run(session())
    assert size == 12 * KB and data is None
    dep.sim.run(until=dep.sim.now + 120)  # lazy replication to degree 2
    metas = [seg.meta for seg in (p.store.latest_committed(fileid)
                                  for p in dep.providers.values())
             if seg is not None]
    assert len(metas) == 2
    for meta in metas:
        assert meta["attached"] is None and meta["attached_len"] == 12 * KB
        assert not meta["layout"].segments


def test_attached_content_mixes_literal_and_size_only():
    """Literal bytes read back as written; where a file mixes literal
    and size-only writes the size-only part reads as zeros — including a
    size-only write *over* literal bytes, which leaves them in place."""
    dep = deploy()
    client = dep.client_on("c00")

    def session(path, writes):
        fh = yield from client.open(path, "w", create=True)
        for offset, length, data in writes:
            yield from client.write(fh, offset, length, data=data)
        yield from client.close(fh)
        fh = yield from client.open(path, "r")
        data = yield from client.read(fh, 0, fh.size)
        yield from client.close(fh)
        return data

    assert dep.run(session("/lit", [(0, 4, b"abcd")])) == b"abcd"
    assert dep.run(session("/lit-then-size", [(0, 4, b"abcd"), (4, 4, None)])) \
        == b"abcd" + b"\x00" * 4
    assert dep.run(session("/size-then-lit", [(0, 4, None), (4, 4, b"abcd")])) \
        == b"\x00" * 4 + b"abcd"
    assert dep.run(session("/size-over-lit", [(0, 4, b"abcd"), (0, 4, None)])) \
        == b"abcd"


def test_size_only_file_spills_synthetic_at_its_literal_twins_time():
    """A size-only attached file that outgrows ``ATTACH_MAX`` moves into
    a data segment as a synthetic extent, and every charge on the way is
    set by sizes: its literal-bytes twin closes at the same instant."""
    size = 100 * KB

    def run(literal):
        dep = deploy()
        client = dep.client_on("c00")

        def session():
            fh = yield from client.open("/spill", "w", create=True)
            for offset, n in ((0, 12 * KB), (12 * KB, size - 12 * KB)):
                yield from client.write(
                    fh, offset, n, data=b"z" * n if literal else None)
            yield from client.close(fh)
            return fh.layout.segments[0].segid

        segid = dep.run(session())
        (seg,) = [seg for seg in (p.store.latest_committed(segid)
                                  for p in dep.providers.values())
                  if seg is not None]
        return dep.sim.now, seg

    t_size_only, seg = run(literal=False)
    assert seg.size == size
    assert list(seg.extents) == [(0, size, SYNTHETIC)]
    t_literal, seg = run(literal=True)
    assert all(isinstance(v, tuple) for _s, _e, v in seg.extents)
    assert t_size_only == t_literal


def test_write_read_roundtrip_large_linear():
    dep = deploy()
    client = dep.client_on("c00")
    size = 3 * MB  # several 1 MB segments
    pattern = bytes(range(256)) * 64

    def writer():
        fh = yield from client.open("/big", "w", create=True)
        off = 0
        while off < size:
            yield from client.write(fh, off, len(pattern), data=pattern,
                                    sequential=True)
            off += len(pattern)
        yield from client.close(fh)
        return fh.layout

    def reader(offset, length):
        fh = yield from client.open("/big", "r")
        data = yield from client.read(fh, offset, length)
        yield from client.close(fh)
        return data

    layout = dep.run(writer())
    assert len(layout.segments) == 3
    got = dep.run(reader(MB - 100, 200))  # crosses a segment boundary
    want_off = (MB - 100) % len(pattern)
    want = (pattern * 3)[want_off:want_off + 200]
    assert got == want


def test_version_advances_on_each_commit():
    dep = deploy()
    client = dep.client_on("c00")

    def sessions():
        versions = []
        for _ in range(3):
            fh = yield from client.open("/v", "w", create=True)
            yield from client.write(fh, 0, 100)
            versions.append((yield from client.close(fh)))
        return versions

    assert dep.run(sessions()) == [1, 2, 3]


def test_readers_see_committed_version_only():
    dep = deploy()
    w = dep.client_on("c00")
    r = dep.client_on("c01")

    def scenario():
        fh = yield from w.open("/iso", "w", create=True)
        yield from w.write(fh, 0, 4, data=b"AAAA")
        yield from w.close(fh)

        fh2 = yield from w.open("/iso", "w")
        yield from w.write(fh2, 0, 4, data=b"BBBB")
        # Not yet committed: a reader must still see AAAA.
        rfh = yield from r.open("/iso", "r")
        before = yield from r.read(rfh, 0, 4)
        yield from w.close(fh2)
        rfh2 = yield from r.open("/iso", "r")
        after = yield from r.read(rfh2, 0, 4)
        return before, after

    before, after = dep.run(scenario())
    assert before == b"AAAA"
    assert after == b"BBBB"


def test_commit_conflict_detected():
    dep = deploy()
    a = dep.client_on("c00")
    b = dep.client_on("c01")

    def scenario():
        fh = yield from a.open("/c", "w", create=True)
        yield from a.write(fh, 0, 4, data=b"base")
        yield from a.close(fh)

        fa = yield from a.open("/c", "w")
        fb = yield from b.open("/c", "w")
        yield from a.write(fa, 0, 4, data=b"AAAA")
        yield from a.close(fa)
        # b's session started from version 1 which is now stale.
        try:
            yield from b.write(fb, 0, 4, data=b"BBBB")
            yield from b.close(fb)
        except CommitConflict:
            return "conflict"
        return "no conflict"

    assert dep.run(scenario()) == "conflict"


def test_atomic_append_under_contention():
    dep = deploy()
    clients = [dep.client_on(f"c0{i}") for i in range(2)]
    record = b"R" * 64

    def appender(c, n):
        for _ in range(n):
            yield from c.atomic_append("/log", len(record), data=record)

    def check():
        fh = yield from clients[0].open("/log", "r")
        data = yield from clients[0].read(fh, 0, fh.size)
        return fh.size, data

    p1 = dep.sim.process(appender(clients[0], 4))
    p2 = dep.sim.process(appender(clients[1], 4))
    dep.sim.run(until=dep.sim.now + 120)
    assert p1.triggered and p2.triggered
    size, data = dep.run(check())
    assert size == 8 * len(record)
    assert data == record * 8


def test_unlink_removes_everything():
    dep = deploy(degree=2)
    client = dep.client_on("c00")

    def scenario():
        fh = yield from client.open("/gone", "w", create=True)
        yield from client.write(fh, 0, 2 * MB)
        yield from client.close(fh)
        yield dep.sim.timeout(30)  # let replication catch up
        yield from client.unlink("/gone")
        yield dep.sim.timeout(10)
        with pytest.raises(SorrentoError):
            yield from client.open("/gone", "r")

    dep.run(scenario())
    # Every provider must have dropped the data segments.
    assert dep.total_bytes_stored() == 0


def test_directories():
    dep = deploy()
    client = dep.client_on("c00")

    def scenario():
        yield from client.mkdir("/data")
        yield from client.mkdir("/data/sub")
        fh = yield from client.open("/data/x", "w", create=True)
        yield from client.write(fh, 0, 10)
        yield from client.close(fh)
        listing = yield from client.listdir("/data")
        return listing

    assert dep.run(scenario()) == ["sub/", "x"]


def test_replication_restores_degree():
    dep = deploy(n_storage=4, degree=3)
    client = dep.client_on("c00")

    def scenario():
        fh = yield from client.open("/r", "w", create=True)
        yield from client.write(fh, 0, MB)
        yield from client.close(fh)
        return [ref.segid for ref in fh.layout.segments] + [fh.fileid]

    segids = dep.run(scenario())
    dep.sim.run(until=dep.sim.now + 120)  # lazy replication in background
    for segid in segids:
        holders = [
            h for h, p in dep.providers.items()
            if p.store.latest_committed(segid) is not None
        ]
        assert len(holders) == 3, f"segment {segid:#x} has {holders}"


def test_replica_consistency_after_second_commit():
    dep = deploy(n_storage=3, degree=2)
    client = dep.client_on("c00")

    def scenario():
        fh = yield from client.open("/rc", "w", create=True)
        yield from client.write(fh, 0, 6, data=b"AAAAAA")
        yield from client.close(fh)
        yield dep.sim.timeout(60)
        fh = yield from client.open("/rc", "w")
        yield from client.write(fh, 0, 6, data=b"BBBBBB")
        yield from client.close(fh)
        yield dep.sim.timeout(60)
        return [ref.segid for ref in fh.layout.segments]

    segids = dep.run(scenario())
    for segid in segids:
        versions = {
            p.store.latest_committed(segid).version
            for p in dep.providers.values()
            if p.store.latest_committed(segid) is not None
        }
        assert versions == {2}, f"replicas diverge: {versions}"


def test_provider_crash_data_still_readable():
    dep = deploy(n_storage=4, degree=2)
    client = dep.client_on("c00")

    def write():
        fh = yield from client.open("/ha", "w", create=True)
        yield from client.write(fh, 0, 64 * 1024, data=b"x" * 65536)
        yield from client.close(fh)
        return fh

    fh = dep.run(write())
    dep.sim.run(until=dep.sim.now + 90)  # replicas in place
    # Kill one owner of the data segment (not the namespace server's node).
    segid = fh.layout.segments[0].segid
    owner = next(h for h, p in dep.providers.items()
                 if p.store.latest_committed(segid) is not None
                 and h != dep.ns_host)
    dep.nodes[owner].crash()
    dep.sim.run(until=dep.sim.now + 10)  # membership notices

    def read():
        rfh = yield from client.open("/ha", "r")
        data = yield from client.read(rfh, 0, 16)
        return data

    assert dep.run(read()) == b"x" * 16


def test_a_client_on_an_added_provider_shares_its_membership():
    dep = deploy(n_storage=3)
    provider = dep.add_provider(NodeSpec(
        name="snew", cpus=2, cpu_ghz=1.4, disks=("ultrastar-dk32ej",),
        export_capacity=4096 * MB))
    dep.warm_up()
    client = dep.client_on("snew")
    assert client.membership is provider.membership
    assert "snew" in client.membership.live_providers()

    def roundtrip():
        fh = yield from client.open("/added", "w", create=True)
        yield from client.write(fh, 0, 16, data=b"y" * 16)
        yield from client.close(fh)
        rfh = yield from client.open("/added", "r")
        data = yield from client.read(rfh, 0, 16)
        return data

    assert dep.run(roundtrip()) == b"y" * 16
