"""Tests for synchronous commitment (Section 3.6) and write-lock leases.

Synchronous commitment is deployment-wide: with ``eager_propagation``
every provider pushes a committed version to the stale replicas before
it acknowledges the commit."""

import pytest

from repro.cluster import small_cluster
from repro.core import SorrentoConfig, SorrentoDeployment
from repro.core.client import CommitConflict
from repro.core.params import SorrentoParams

MB = 1 << 20


def deploy(degree=2, seed=51, **over):
    dep = SorrentoDeployment(
        small_cluster(4, n_compute=2, capacity_per_node=8 << 30),
        SorrentoConfig(params=SorrentoParams(default_degree=degree, **over),
                       seed=seed),
    )
    dep.warm_up()
    return dep


def replica_versions(dep, segid):
    return sorted(
        p.store.latest_committed(segid).version
        for p in dep.providers.values()
        if p.store.latest_committed(segid) is not None
    )


def test_synchronous_close_pushes_replicas_before_returning():
    dep = deploy(degree=2, eager_propagation=True)
    client = dep.client_on("c00")

    def first():
        fh = yield from client.open("/sc", "w", create=True)
        yield from client.write(fh, 0, MB)
        yield from client.close(fh)
        return fh

    fh = dep.run(first())
    dep.sim.run(until=dep.sim.now + 90)  # both replicas at v1
    segid = fh.layout.segments[0].segid
    assert replica_versions(dep, segid) == [1, 1]

    def second():
        wfh = yield from client.open("/sc", "w")
        yield from client.write(wfh, 0, MB)
        yield from client.close(wfh)
        # IMMEDIATELY after close: every replica must be at v2 already.
        return replica_versions(dep, segid)

    assert dep.run(second()) == [2, 2]


def test_lazy_close_leaves_stale_replica_briefly():
    """Contrast case: default (lazy) close returns before propagation."""
    dep = deploy(degree=2)
    client = dep.client_on("c00")

    def first():
        fh = yield from client.open("/lz", "w", create=True)
        yield from client.write(fh, 0, MB)
        yield from client.close(fh)
        return fh

    fh = dep.run(first())
    dep.sim.run(until=dep.sim.now + 90)
    segid = fh.layout.segments[0].segid

    def second():
        wfh = yield from client.open("/lz", "w")
        yield from client.write(wfh, 0, MB)
        yield from client.close(wfh)  # lazy
        return replica_versions(dep, segid)

    versions = dep.run(second())
    assert 1 in versions  # at least one replica still behind at close time
    dep.sim.run(until=dep.sim.now + 90)
    assert replica_versions(dep, segid) == [2, 2]  # converges lazily


def test_lease_serializes_cooperative_writers():
    dep = deploy(degree=1)
    a = dep.client_on("c00")
    b = dep.client_on("c01")

    def scenario():
        fh = yield from a.open("/coop", "w", create=True)
        yield from a.close(fh)
        ok = yield from a.acquire_lease("/coop", duration=60.0)
        assert ok
        # b cannot acquire while a holds it.
        ok_b = yield from b.acquire_lease("/coop")
        assert not ok_b
        # b's commit is blocked by the lease (no conflict storm, a clean
        # early rejection).
        bfh = yield from b.open("/coop", "w")
        yield from b.write(bfh, 0, 1024)
        with pytest.raises(CommitConflict):
            yield from b.close(bfh)
        # a commits fine under its own lease.
        afh = yield from a.open("/coop", "w")
        yield from a.write(afh, 0, 1024)
        version = yield from a.close(afh)
        assert version == 2
        yield from a.release_lease("/coop")
        ok_b = yield from b.acquire_lease("/coop")
        assert ok_b

    dep.run(scenario())
