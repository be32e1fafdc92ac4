"""Cross-node consistency tests: content survives replication, sync,
consolidation, and migration."""

import pytest

from repro.cluster import small_cluster
from repro.core import SorrentoConfig, SorrentoDeployment
from repro.core.params import SorrentoParams

MB = 1 << 20


def deploy(degree=2, seed=41, **over):
    dep = SorrentoDeployment(
        small_cluster(4, n_compute=2, capacity_per_node=8 << 30),
        SorrentoConfig(params=SorrentoParams(default_degree=degree, **over),
                       seed=seed),
    )
    dep.warm_up()
    return dep


def test_content_preserved_across_replication():
    """Literal bytes written by a client must read back identically from
    a background-created replica."""
    dep = deploy(degree=2)
    client = dep.client_on("c00")
    payload = bytes(i % 251 for i in range(200_000))

    def write():
        fh = yield from client.open("/content", "w", create=True)
        yield from client.write(fh, 0, len(payload), data=payload)
        yield from client.close(fh)
        return fh

    fh = dep.run(write())
    dep.sim.run(until=dep.sim.now + 90)  # replication + grace
    segid = fh.layout.segments[0].segid
    holders = [p for p in dep.providers.values()
               if p.store.latest_committed(segid) is not None]
    assert len(holders) == 2

    def read_direct(provider):
        seg = provider.store.latest_committed(segid)
        data = yield from provider.store.read(segid, seg.version, 1000, 500)
        return data

    copies = [dep.run(read_direct(p)) for p in holders]
    assert copies[0] == copies[1] == payload[1000:1500]


def test_content_preserved_across_version_sync():
    """A replica that lazily syncs a diff must converge byte-for-byte."""
    dep = deploy(degree=2)
    client = dep.client_on("c00")

    def session(data, offset=0):
        fh = yield from client.open("/sync-content", "w", create=True)
        yield from client.write(fh, offset, len(data), data=data)
        yield from client.close(fh)
        return fh

    base = b"A" * 100_000
    fh = dep.run(session(base))
    dep.sim.run(until=dep.sim.now + 90)
    patch = b"B" * 1000
    fh = dep.run(session(patch, offset=50_000))
    dep.sim.run(until=dep.sim.now + 90)
    segid = fh.layout.segments[0].segid
    holders = [p for p in dep.providers.values()
               if p.store.latest_committed(segid) is not None]
    assert len(holders) == 2

    def read_range(provider, off, n):
        seg = provider.store.latest_committed(segid)
        assert seg.version == 2
        data = yield from provider.store.read(segid, seg.version, off, n)
        return data

    for p in holders:
        assert dep.run(read_range(p, 49_999, 3)) == b"ABB"
        assert dep.run(read_range(p, 50_999, 3)) == b"BAA"


def test_old_versions_consolidated_on_primary():
    """Repeated commits must not accumulate unbounded version chains."""
    dep = deploy(degree=1, keep_versions=2)
    client = dep.client_on("c00")

    def sessions(n):
        for _ in range(n):
            fh = yield from client.open("/many", "w", create=True)
            yield from client.write(fh, 0, 2 * MB)
            yield from client.close(fh)
        return fh

    fh = dep.run(sessions(6))
    dep.sim.run(until=dep.sim.now + 30)
    segid = fh.layout.segments[0].segid
    owner = next(p for p in dep.providers.values()
                 if p.store.latest_committed(segid) is not None)
    assert len(owner.store.versions_of(segid)) <= 2
    # The index segment's chain is bounded too.
    idx_owner = next(p for p in dep.providers.values()
                     if p.store.latest_committed(fh.fileid) is not None)
    assert len(idx_owner.store.versions_of(fh.fileid)) <= 2


def test_small_file_versions_get_consolidated():
    """A small file's chain (index segment, data attached) is bounded by
    ``keep_versions`` as well."""
    dep = deploy(degree=1, seed=71, keep_versions=2)
    client = dep.client_on("c00")

    def sessions():
        for payload in (b"v1", b"v2", b"v3", b"v4", b"v5"):
            fh = yield from client.open("/gone-old", "w", create=True)
            yield from client.write(fh, 0, len(payload), data=payload)
            yield from client.close(fh)
        return fh

    fh = dep.run(sessions())
    dep.sim.run(until=dep.sim.now + 30)
    segid = fh.layout.segments[0].segid if fh.layout.segments else fh.fileid
    owner = next(p for p in dep.providers.values()
                 if p.store.latest_committed(segid) is not None)
    assert len(owner.store.versions_of(segid)) <= 2


def test_content_preserved_after_consolidation():
    dep = deploy(degree=1, keep_versions=2)
    client = dep.client_on("c00")

    def sessions():
        fh = yield from client.open("/consol", "w", create=True)
        yield from client.write(fh, 0, 9, data=b"AAAAAAAAA")
        yield from client.close(fh)
        for i, ch in enumerate((b"B", b"C", b"D", b"E")):
            fh = yield from client.open("/consol", "w")
            yield from client.write(fh, i * 2, 1, data=ch)
            yield from client.close(fh)
        yield dep.sim.timeout(30)
        rfh = yield from client.open("/consol", "r")
        data = yield from client.read(rfh, 0, 9)
        return data

    assert dep.run(sessions()) == b"BACADAEAA"[:9]


def test_migrated_segment_keeps_content():
    dep = deploy(degree=1, migration_interval=15.0, locality_min_samples=5,
                 seed=43)
    hosts = sorted(dep.providers)
    dep.preload_file("/mig", 2 * MB, degree=1, placement="locality",
                     on=[hosts[1]])
    # Overwrite with literal content so there is something to verify.
    client0 = dep.client_on(hosts[0])
    payload = bytes(i % 199 for i in range(4096))

    def write_marker():
        fh = yield from client0.open("/mig", "w")
        yield from client0.write(fh, 100_000, len(payload), data=payload)
        yield from client0.close(fh)

    dep.run(write_marker())

    def hammer():
        fh = yield from client0.open("/mig", "r")
        for _ in range(60):
            yield from client0.read(fh, 0, 256 * 1024)
            yield dep.sim.timeout(1.5)
        yield from client0.close(fh)

    proc = dep.sim.process(hammer())
    dep.sim.run(until=dep.sim.now + 150)
    assert proc.triggered
    assert sum(p.stats["migrations"] for p in dep.providers.values()) > 0

    def read_back():
        fh = yield from client0.open("/mig", "r")
        data = yield from client0.read(fh, 100_000, len(payload))
        return data

    assert dep.run(read_back()) == payload
