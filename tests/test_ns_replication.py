"""Tests for the namespace-replication extension (hot standby, §3.1):
the default one-shard namespace with a standby behind its shard."""

import pytest

from repro.cluster import small_cluster
from repro.core import SorrentoConfig, SorrentoDeployment
from repro.core.params import SorrentoParams

MB = 1 << 20


def deploy(seed=91):
    spec = small_cluster(4, n_compute=2, capacity_per_node=8 << 30)
    dep = SorrentoDeployment(
        spec,
        SorrentoConfig(params=SorrentoParams(default_degree=2), seed=seed,
                       ns_shard_standbys_on=[spec.storage_nodes[1].name]),
    )
    dep.warm_up()
    return dep


def test_standby_mirrors_mutations():
    dep = deploy()
    client = dep.client_on("c00")

    def work():
        yield from client.mkdir("/d")
        fh = yield from client.open("/d/f", "w", create=True)
        yield from client.write(fh, 0, 1024)
        yield from client.close(fh)
        yield from client.unlink("/d/f")
        fh = yield from client.open("/d/g", "w", create=True)
        yield from client.close(fh)

    dep.run(work())
    dep.sim.run(until=dep.sim.now + 2)  # shipping drains
    primary = dep.ns.db
    standby = dep.ns_shard_standby_servers[dep.ns_host].db
    assert standby.get("f:/d/f") is None
    assert standby.get("f:/d/g") == primary.get("f:/d/g")
    assert standby.get("d:/d") is not None


def test_failover_serves_lookups_and_commits():
    dep = deploy()
    client = dep.client_on("c00")

    def setup():
        fh = yield from client.open("/ha-ns", "w", create=True)
        yield from client.write(fh, 0, 1 * MB)
        yield from client.close(fh)

    dep.run(setup())
    dep.sim.run(until=dep.sim.now + 60)  # replication of data segments
    # Kill the primary namespace node.
    dep.nodes[dep.ns_host].crash()
    dep.sim.run(until=dep.sim.now + 10)

    def after():
        entry = yield from client.stat("/ha-ns")       # fails over
        fh = yield from client.open("/ha-ns", "r")
        yield from client.read(fh, 0, 1024)
        # Mutations work against the standby too.
        wfh = yield from client.open("/ha-ns", "w")
        yield from client.write(wfh, 0, 2048)
        version = yield from client.close(wfh)
        return entry["version"], version

    before_version, after_version = dep.run(after(),
                                            until=dep.sim.now + 120)
    assert before_version == 1
    assert after_version == 2
    # The client settled on the standby.
    assert client.router.route_host("/ha-ns") == dep.ns_shards[dep.ns_host][1]


def test_root_listing_fails_over_with_the_shard():
    """The root listing is addressed per shard, not by path, and still
    rotates to the shard's standby when the primary is gone."""
    dep = deploy()
    client = dep.client_on("c00")

    def setup():
        yield from client.mkdir("/a")
        yield from client.mkdir("/b")

    dep.run(setup())
    dep.sim.run(until=dep.sim.now + 2)  # shipping drains
    dep.nodes[dep.ns_host].crash()
    listing = dep.run(client.listdir("/"), until=dep.sim.now + 60)
    assert listing == ["a/", "b/"]


def test_failover_is_transparent_to_atomic_append():
    dep = deploy()
    client = dep.client_on("c00")

    def work():
        yield from client.atomic_append("/log", 64)
        dep.nodes[dep.ns_host].crash()
        yield dep.sim.timeout(8)
        yield from client.atomic_append("/log", 64)
        fh = yield from client.open("/log", "r")
        return fh.size

    assert dep.run(work(), until=dep.sim.now + 300) == 128
