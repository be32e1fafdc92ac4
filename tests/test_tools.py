"""Tests for the monitoring/diagnosis toolbox."""

from repro.cluster import small_cluster
from repro.core import SorrentoConfig, SorrentoDeployment
from repro.core.params import SorrentoParams
from repro.tools import ClusterInspector

MB = 1 << 20


def deploy(degree=2, seed=61, n_storage=4):
    dep = SorrentoDeployment(
        small_cluster(n_storage, n_compute=2, capacity_per_node=8 << 30),
        SorrentoConfig(params=SorrentoParams(default_degree=degree),
                       seed=seed),
    )
    dep.warm_up()
    return dep


def populate(dep, n_files=3, size=2 * MB):
    client = dep.client_on("c00")

    def gen():
        for i in range(n_files):
            fh = yield from client.open(f"/t{i}", "w", create=True)
            yield from client.write(fh, 0, size)
            yield from client.close(fh)

    dep.run(gen())
    dep.sim.run(until=dep.sim.now + 90)  # replication settles
    return client


# ------------------------------------------------------------ inspector
def test_replica_report_healthy_cluster():
    dep = deploy()
    populate(dep)
    report = ClusterInspector(dep).replica_report()
    assert report.ok
    assert report.total_segments > 0
    assert report.healthy == report.total_segments


def test_replica_report_flags_under_replication():
    dep = deploy(degree=2)
    populate(dep, n_files=1)
    insp = ClusterInspector(dep)
    segid, holders = next(iter(insp.replica_map().items()))
    victim = next(iter(holders))
    # Drop one replica behind the system's back.
    dep.providers[victim].store.lose_segment(segid)
    report = insp.replica_report()
    assert any(s == segid for s, _h, _w in report.under_replicated)


def test_orphan_detection():
    dep = deploy(degree=1)
    populate(dep, n_files=1)
    insp = ClusterInspector(dep)
    assert insp.orphaned_segments() == []
    # Unreferenced committed segment = orphan.
    provider = next(iter(dep.providers.values()))

    def plant():
        yield from provider.store.apply_diff(0xBAD0BAD, 1, 1024)

    dep.run(plant())
    assert 0xBAD0BAD in insp.orphaned_segments()


def test_orphans_are_judged_against_every_shard():
    """``file_entries`` walks every shard's DB (it used to read shard 0's
    only, so the segments of files the other shards own were orphans)."""
    dep = SorrentoDeployment(
        small_cluster(4, n_compute=1, capacity_per_node=8 << 30),
        SorrentoConfig(params=SorrentoParams(), seed=61, namespace_shards=2),
    )
    dep.warm_up()
    paths = {}
    for i in range(40):
        path = f"/t{i}/f"
        paths.setdefault(dep.namespace_for(path).shard_name, path)
    assert len(paths) == 2
    for path in paths.values():
        dep.preload_file(path, 1 * MB)
    insp = ClusterInspector(dep)
    assert sorted(p for p, _ in insp.file_entries()) == sorted(paths.values())
    assert insp.orphaned_segments() == []


def test_location_audit_clean_then_ghost():
    dep = deploy(degree=1)
    populate(dep, n_files=2)
    insp = ClusterInspector(dep)
    audit = insp.location_audit()
    assert audit["missing"] == []
    # Inject a ghost entry: the table claims an owner that has nothing.
    p = next(iter(dep.providers.values()))
    p.home.table.update(0xFEED, "s00", 1, 1, 100, dep.sim.now)
    audit = insp.location_audit()
    assert 0xFEED in audit["ghost"]


def test_balance_report():
    dep = deploy()
    populate(dep)
    bal = ClusterInspector(dep).balance_report()
    assert len(bal.storage_utilization) == 4
    assert bal.unevenness_ratio >= 1.0 or bal.unevenness_ratio == float("inf")
    assert "providers" in ClusterInspector(dep).summary()
