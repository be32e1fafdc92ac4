"""Failure-injection tests: crashes at awkward moments must not corrupt."""

import pytest

from repro.cluster import small_cluster
from repro.core import SorrentoConfig, SorrentoDeployment
from repro.core.client import SorrentoError
from repro.core.params import SorrentoParams

MB = 1 << 20


def deploy(n_storage=4, degree=1, seed=21, **over):
    params = SorrentoParams(default_degree=degree, **over)
    dep = SorrentoDeployment(
        small_cluster(n_storage, n_compute=2, capacity_per_node=8 << 30),
        SorrentoConfig(params=params, seed=seed),
    )
    dep.warm_up()
    return dep


def test_crash_mid_2pc_leaves_version_unchanged():
    """If a participant dies before phase 2, the commit fails cleanly and
    the namespace version does not advance."""
    # Seed chosen so placement puts /f's data segment off the namespace
    # host (the test needs a crashable data owner that isn't also the
    # namespace server).
    dep = deploy(seed=24)
    client = dep.client_on("c00")

    def setup():
        fh = yield from client.open("/f", "w", create=True)
        yield from client.write(fh, 0, 2 * MB)
        yield from client.close(fh)
        return fh

    fh = dep.run(setup())
    data_owner = next(h for h, p in dep.providers.items()
                      if h != dep.ns_host
                      and p.store.latest_committed(
                          fh.layout.segments[0].segid) is not None)

    def doomed_write():
        wfh = yield from client.open("/f", "w")
        yield from client.write(wfh, 0, 2 * MB)
        # Kill the shadow's owner right before commit.
        dep.crash_provider(data_owner)
        try:
            yield from client.close(wfh)
        except SorrentoError:
            return "failed-cleanly"
        return "committed"

    outcome = dep.run(doomed_write(), until=dep.sim.now + 120)
    entry = dep.ns.db.get("f:/f")
    if outcome == "failed-cleanly":
        assert entry.version == 1
    else:
        # The shadow landed on a surviving owner: commit may legally
        # succeed; version then advanced exactly once.
        assert entry.version == 2


def test_namespace_crash_recovery_preserves_files():
    dep = deploy()
    client = dep.client_on("c00")

    def setup():
        for i in range(5):
            fh = yield from client.open(f"/f{i}", "w", create=True)
            yield from client.write(fh, 0, 1024)
            yield from client.close(fh)

    dep.run(setup())
    dep.ns.crash()
    dep.ns.recover()

    def check():
        out = []
        for i in range(5):
            entry = yield from client.stat(f"/f{i}")
            out.append(entry["version"])
        return out

    assert dep.run(check()) == [1] * 5


def test_abandoned_shadows_expire():
    """A crashed client's shadow copies get garbage-collected (TTL)."""
    dep = deploy(shadow_ttl=20.0)
    client = dep.client_on("c00")

    def setup():
        fh = yield from client.open("/orphan", "w", create=True)
        yield from client.write(fh, 0, 2 * MB)
        yield from client.close(fh)
        # Second session: write but never commit (client "dies").
        fh2 = yield from client.open("/orphan", "w")
        yield from client.write(fh2, 0, 1 * MB)
        return fh2

    fh2 = dep.run(setup())
    segid = fh2.layout.segments[0].segid
    owner, version = fh2.shadows[segid]
    assert dep.providers[owner].store.get(segid, version) is not None
    dep.sim.run(until=dep.sim.now + 60)  # TTL + sweep period
    assert dep.providers[owner].store.get(segid, version) is None


def test_reads_continue_during_recovery():
    """No zero-availability window while replicas are being restored."""
    dep = deploy(n_storage=5, degree=2, repair_delay=5.0, repair_grace=5.0)
    client = dep.client_on("c00")

    def setup():
        fh = yield from client.open("/live", "w", create=True)
        yield from client.write(fh, 0, 4 * MB)
        yield from client.close(fh)
        return fh

    fh = dep.run(setup())
    dep.sim.run(until=dep.sim.now + 40)  # replicas in place
    segid = fh.layout.segments[0].segid
    victim = next(h for h, p in dep.providers.items()
                  if h != dep.ns_host
                  and p.store.latest_committed(segid) is not None)
    dep.crash_provider(victim)

    failures = []

    def reader():
        for _ in range(30):
            try:
                rfh = yield from client.open("/live", "r")
                yield from client.read(rfh, 0, 64 * 1024)
                yield from client.close(rfh)
            except SorrentoError as exc:
                failures.append(str(exc))
            yield dep.sim.timeout(2.0)

    proc = dep.sim.process(reader())
    dep.sim.run(until=dep.sim.now + 90)
    assert proc.triggered
    assert failures == []


def test_rejoined_node_stale_data_not_served():
    """A node that returns with old on-disk versions must not win reads."""
    dep = deploy(n_storage=4, degree=2)
    client = dep.client_on("c00")

    def write_version(payload):
        fh = yield from client.open("/stale", "w", create=True)
        yield from client.write(fh, 0, len(payload), data=payload)
        yield from client.close(fh)
        return fh

    dep.run(write_version(b"v1" * 40000))
    dep.sim.run(until=dep.sim.now + 40)

    # Pick a replica holder, crash it, advance the file, bring it back.
    def find_owner():
        fh = yield from client.open("/stale", "r")
        return fh

    fh = dep.run(find_owner())
    segid = fh.layout.segments[0].segid
    victim = next(h for h, p in dep.providers.items()
                  if h != dep.ns_host
                  and p.store.latest_committed(segid) is not None)
    dep.crash_provider(victim)
    dep.sim.run(until=dep.sim.now + 12)
    dep.run(write_version(b"v2" * 40000))
    dep.restart_provider(victim)
    dep.sim.run(until=dep.sim.now + 60)

    def read_back():
        rfh = yield from client.open("/stale", "r")
        data = yield from client.read(rfh, 0, 2)
        return data

    assert dep.run(read_back()) == b"v2"


def test_wiped_node_rejoins_empty_and_repopulates():
    dep = deploy(n_storage=4, degree=3, repair_grace=10.0,
                 repair_cooldown=10.0)
    client = dep.client_on("c00")

    def setup():
        fh = yield from client.open("/wipe", "w", create=True)
        yield from client.write(fh, 0, 2 * MB)
        yield from client.close(fh)
        return fh

    fh = dep.run(setup())
    dep.sim.run(until=dep.sim.now + 60)
    segid = fh.layout.segments[0].segid
    victim = next(h for h, p in dep.providers.items()
                  if p.store.latest_committed(segid) is not None)
    dep.crash_provider(victim)
    dep.nodes[victim].fs.files.clear()
    dep.nodes[victim].fs.used = 0
    dep.providers[victim].store.wipe()
    dep.sim.run(until=dep.sim.now + 15)
    dep.restart_provider(victim)
    dep.sim.run(until=dep.sim.now + 180)
    holders = [h for h, p in dep.providers.items()
               if p.store.latest_committed(segid) is not None]
    assert len(holders) >= 3  # degree restored despite the wiped disk
