"""Tests for the monitoring/diagnosis toolbox."""

import pytest

from repro.cluster import small_cluster
from repro.core import SorrentoConfig, SorrentoDeployment
from repro.core.params import SorrentoParams
from repro.tools import (
    ClusterInspector,
    availability_after_failure,
    bucket_series,
    ewma,
    max_survivable_failures,
    mean_ci,
    percentile_summary,
    placement_graph,
    replica_overlap_graph,
)

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
        yield from provider.store.ingest(0xBAD0BAD, 1, 1024)

    dep.run(plant())
    assert 0xBAD0BAD in insp.orphaned_segments()


def test_location_audit_clean_then_ghost():
    dep = deploy(degree=1)
    populate(dep, n_files=2)
    insp = ClusterInspector(dep)
    audit = insp.location_audit()
    assert audit["missing"] == []
    # Inject a ghost entry: the table claims an owner that has nothing.
    p = next(iter(dep.providers.values()))
    p.loc.update(0xFEED, "s00", 1, 1, 100, dep.sim.now)
    audit = insp.location_audit()
    assert 0xFEED in audit["ghost"]


def test_balance_report():
    dep = deploy()
    populate(dep)
    bal = ClusterInspector(dep).balance_report()
    assert len(bal.storage_utilization) == 4
    assert bal.unevenness_ratio >= 1.0 or bal.unevenness_ratio == float("inf")
    assert "providers" in ClusterInspector(dep).summary()


# ------------------------------------------------------------- topology
def test_placement_graph_shape():
    dep = deploy(degree=2)
    populate(dep, n_files=2)
    g = placement_graph(dep)
    providers = [n for n, d in g.nodes(data=True) if d["kind"] == "provider"]
    segments = [n for n, d in g.nodes(data=True) if d["kind"] == "segment"]
    assert len(providers) == 4
    assert segments
    # Every segment node has exactly `holders` edges.
    for s in segments:
        assert g.degree(s) == g.nodes[s]["holders"]


def test_replica_overlap_graph():
    dep = deploy(degree=2)
    populate(dep, n_files=3)
    g = replica_overlap_graph(dep)
    # With degree 2 every segment contributes one provider-pair edge.
    assert g.number_of_edges() >= 1
    assert all(d["weight"] >= 1 for _u, _v, d in g.edges(data=True))


def test_availability_after_failure_degree2():
    dep = deploy(degree=2)
    populate(dep, n_files=2)
    hosts = sorted(dep.providers)
    one = availability_after_failure(dep, [hosts[1]])
    assert one["lost_segments"] == []       # r=2 survives any single loss
    assert one["lost_files"] == []
    all_gone = availability_after_failure(dep, hosts)
    assert all_gone["lost_files"]           # everything dies with everyone


def test_lost_files_are_reported_from_every_shard():
    """The lost-file scan walks every shard's DB (it used to read shard
    0's only, reporting nothing for files the other shards own)."""
    dep = SorrentoDeployment(
        small_cluster(4, n_compute=1, capacity_per_node=8 << 30),
        SorrentoConfig(params=SorrentoParams(), seed=61, namespace_shards=2),
    )
    dep.warm_up()
    victim, safe = sorted(dep.providers)[-2:]
    doomed = {}
    for i in range(40):
        path = f"/t{i}/f"
        doomed.setdefault(dep.namespace_for(path).shard_name, path)
    assert len(doomed) == 2
    for path in doomed.values():
        dep.preload_file(path, 1 * MB, on=[victim])
    dep.preload_file("/kept/f", 1 * MB, on=[safe])
    dep.crash_provider(victim, wipe=True)
    report = availability_after_failure(dep, [victim])
    assert report["lost_files"] == sorted(doomed.values())


def test_max_survivable_failures():
    dep = deploy(degree=2)
    populate(dep, n_files=2)
    k = max_survivable_failures(dep)
    assert k >= 1  # replication degree 2 tolerates any single failure


# ------------------------------------------------------------------ stats
def test_ewma_smooths():
    series = [0, 10, 0, 10, 0, 10]
    smooth = ewma(series, alpha=0.3)
    assert len(smooth) == len(series)
    assert max(smooth) < 10 and min(smooth[1:]) > 0
    with pytest.raises(ValueError):
        ewma(series, alpha=0.0)


def test_percentile_summary():
    s = percentile_summary(range(1, 101), pcts=(50, 90))
    assert s["min"] == 1 and s["max"] == 100
    assert 49 <= s["p50"] <= 51
    assert 89 <= s["p90"] <= 91
    with pytest.raises(ValueError):
        percentile_summary([])


def test_mean_ci_contains_mean():
    mean, lo, hi = mean_ci([10.0, 12.0, 11.0, 13.0, 9.0])
    assert lo <= mean <= hi
    assert mean == pytest.approx(11.0)
    m1, l1, h1 = mean_ci([5.0])
    assert m1 == l1 == h1 == 5.0


def test_bucket_series_modes():
    events = [(0.5, 4.0), (1.5, 8.0), (2.5, 6.0), (2.9, 2.0)]
    mean_buckets = bucket_series(events, width=1.0, reduce="mean")
    assert mean_buckets[-1][1] == pytest.approx(4.0)  # (6+2)/2
    rate_buckets = bucket_series(events, width=1.0, reduce="rate")
    assert rate_buckets[-1][1] == pytest.approx(8.0)  # (6+2)/1s
    with pytest.raises(ValueError):
        bucket_series(events, width=0)
    assert bucket_series([], width=1.0) == []
