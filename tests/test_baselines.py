"""Tests for the NFS and PVFS baseline models."""

import pytest

from repro.baselines import NFSDeployment, PVFSDeployment
from repro.cluster import small_cluster
from repro.runtime import Tracer

KB = 1 << 10
MB = 1 << 20


# ------------------------------------------------------------------ NFS
def nfs_dep(**kw):
    dep = NFSDeployment(small_cluster(1, n_compute=3), **kw)
    dep.warm_up()
    return dep


def test_nfs_create_write_read_cycle():
    dep = nfs_dep()
    c = dep.client_on("c00")

    def session():
        fh = yield from c.open("/f", "w", create=True)
        yield from c.write(fh, 0, 12 * KB)
        yield from c.close(fh)
        fh2 = yield from c.open("/f", "r")
        yield from c.read(fh2, 0, 12 * KB)
        yield from c.close(fh2)
        return fh2.size

    assert dep.run(session()) == 12 * KB


def test_nfs_small_op_latency_sub_5ms():
    """Figure 9: NFS small ops are in the few-ms range."""
    dep = nfs_dep()
    c = dep.client_on("c00")

    def create_one():
        t0 = dep.sim.now
        fh = yield from c.open("/lat", "w", create=True)
        yield from c.close(fh)
        return dep.sim.now - t0

    latency = dep.run(create_one())
    assert latency < 5e-3


def test_nfs_missing_file_raises():
    dep = nfs_dep()
    c = dep.client_on("c00")

    def proc():
        with pytest.raises(Exception, match="ENOENT"):
            yield from c.open("/ghost", "r")

    dep.run(proc())


def test_nfs_unlink():
    dep = nfs_dep()
    c = dep.client_on("c00")

    def proc():
        fh = yield from c.open("/x", "w", create=True)
        yield from c.close(fh)
        yield from c.unlink("/x")
        with pytest.raises(Exception):
            yield from c.open("/x", "r")

    dep.run(proc())


def test_nfs_cached_reads_skip_disk():
    dep = nfs_dep()
    c = dep.client_on("c00")

    def proc():
        fh = yield from c.open("/c", "w", create=True)
        yield from c.write(fh, 0, 64 * KB)
        yield from c.close(fh)
        disk_before = dep.server.node.fs.device.requests
        fh2 = yield from c.open("/c", "r")
        yield from c.read(fh2, 0, 64 * KB)
        return dep.server.node.fs.device.requests - disk_before

    # Freshly written data is resident: the read takes no data-disk I/O
    # (the background flusher may account separately).
    assert dep.run(proc()) == 0


def test_nfs_large_io_throughput_capped():
    """Figure 11: NFS saturates around 8 MB/s regardless of client count."""
    dep = nfs_dep()
    clients = [dep.client_on(f"c0{i}") for i in range(3)]

    done = []

    def writer(c, idx):
        fh = yield from c.open(f"/big{idx}", "w", create=True)
        yield from c.write(fh, 0, 16 * MB, sequential=True)
        yield from c.close(fh)
        done.append(dep.sim.now)

    t0 = dep.sim.now
    procs = [dep.sim.process(writer(c, i)) for i, c in enumerate(clients)]
    dep.sim.run(until=t0 + 120)
    assert all(p.triggered for p in procs)
    rate = 48 * MB / (max(done) - t0) / MB
    assert 4 < rate < 14  # MB/s; single-server ceiling


# ------------------------------------------------------------------ PVFS
def pvfs_dep(n_iods=4, n_storage=5, **kw):
    dep = PVFSDeployment(small_cluster(n_storage, n_compute=3),
                         n_iods=n_iods, **kw)
    dep.warm_up()
    return dep


def test_pvfs_create_write_read_cycle():
    dep = pvfs_dep()
    c = dep.client_on("c00")

    def session():
        fh = yield from c.open("/f", "w", create=True)
        yield from c.write(fh, 0, 12 * KB)
        yield from c.close(fh)
        fh2 = yield from c.open("/f", "r")
        yield from c.read(fh2, 0, 12 * KB)
        yield from c.close(fh2)
        return fh2.size

    assert dep.run(session()) == 12 * KB


def test_pvfs_small_ops_tens_of_ms():
    """Figure 9: PVFS small ops land in the tens-of-ms range."""
    dep = pvfs_dep()
    c = dep.client_on("c00")

    def create_one():
        t0 = dep.sim.now
        fh = yield from c.open("/lat", "w", create=True)
        yield from c.close(fh)
        return dep.sim.now - t0

    latency = dep.run(create_one())
    assert 10e-3 < latency < 120e-3


def test_pvfs_create_slower_with_more_iods():
    lat = {}
    for n in (2, 8):
        dep = pvfs_dep(n_iods=n, n_storage=9)
        c = dep.client_on("c00")

        def create_one():
            t0 = dep.sim.now
            fh = yield from c.open("/lat", "w", create=True)
            yield from c.close(fh)
            return dep.sim.now - t0

        lat[n] = dep.run(create_one())
    assert lat[8] > lat[2]


def test_pvfs_stripes_across_iods():
    dep = pvfs_dep(n_iods=4, n_storage=5)
    c = dep.client_on("c00")

    def writer():
        fh = yield from c.open("/s", "w", create=True)
        yield from c.write(fh, 0, 1 * MB, sequential=True)
        yield from c.close(fh)

    dep.run(writer())
    sizes = [iod.node.fs.size_of("pvfs:/s") for iod in dep.iods]
    assert all(s == MB // 4 for s in sizes)


def test_pvfs_large_io_scales_with_clients():
    """Figure 11: PVFS aggregate rate grows with client count."""
    rates = {}
    for n_clients in (1, 4):
        dep = pvfs_dep(n_iods=4, n_storage=5)
        clients = dep.clients_on_compute(n_clients)

        def writer(c, idx):
            fh = yield from c.open(f"/w{idx}", "w", create=True)
            yield from c.write(fh, 0, 8 * MB, sequential=True)
            yield from c.close(fh)

        t0 = dep.sim.now
        procs = [dep.sim.process(writer(c, i)) for i, c in enumerate(clients)]
        dep.sim.run(until=t0 + 60)
        assert all(p.triggered for p in procs)
        rates[n_clients] = n_clients * 8 * MB / (dep.sim.now - t0)
    assert rates[4] > 2.0 * rates[1]


def test_pvfs_unlink_removes_stripes():
    dep = pvfs_dep()
    c = dep.client_on("c00")

    def proc():
        fh = yield from c.open("/z", "w", create=True)
        yield from c.write(fh, 0, 256 * KB)
        yield from c.close(fh)
        yield from c.unlink("/z")
        yield dep.sim.timeout(1.0)  # async stripe cleanup

    dep.run(proc())
    dep.sim.run(until=dep.sim.now + 2)
    assert all(not iod.node.fs.exists("pvfs:/z") for iod in dep.iods)


def test_pvfs_needs_an_iod():
    with pytest.raises(ValueError):
        PVFSDeployment(small_cluster(1, n_compute=1), n_iods=0)


# ------------------------------------------------------------ both models
@pytest.mark.parametrize("make", [nfs_dep, pvfs_dep])
def test_second_client_keeps_the_nodes_rpc_policy(make):
    """A baseline stub is built on the node's runtime, not over its
    wiring: a second ``client_on`` must not reset what was set there."""
    dep = make()
    tracer = Tracer(dep.sim)
    first = dep.client_on("c00")
    first.rpc.configure(tracer=tracer)
    second = dep.client_on("c00")
    assert second.rpc is first.rpc
    assert first.rpc.tracer is tracer
