"""Bulk-preload equivalence: the fast path must build the same cluster
state as the per-file path.

:meth:`SorrentoDeployment.preload_files` draws ids from one shared
stream (the per-file path derives a stream per path), so the two paths
are not bit-identical — but everything *structural* must match: the
namespace listings (entries equal modulo fileid), the aggregate
segment-store contents, the filesystem accounting, the WAL byte
charges, and the location-map records.  Both paths insert through the
same public methods (``SegmentStore.plant``, ``LocationTable.update``,
``RangeMap.set_range``); the location tables are additionally rebuilt
from the planted stores by direct ``update`` calls and compared row for
row.
"""

import pytest

from repro.cluster import small_cluster
from repro.core import SorrentoConfig, SorrentoDeployment
from repro.core.location import LocationTable
from repro.core.namespace import _file_key
from repro.core.params import SorrentoParams

MB = 1 << 20

FILES = [(f"/t{t}/f{i:03d}", (1 + (t + i) % 3) * MB)
         for t in range(3) for i in range(6)]


def deploy(n_storage=6, **over):
    dep = SorrentoDeployment(
        small_cluster(n_storage, n_compute=3, capacity_per_node=8 << 30),
        SorrentoConfig(params=SorrentoParams(**over), seed=3),
    )
    dep.warm_up()
    return dep


def _ns_items(dep):
    """Every namespace (key, entry) pair, across shards."""
    return sorted(item for server in dep.namespace_servers()
                  for item in server.db.items())


def _wal_logs(dep):
    return [server.db._wal for server in dep.namespace_servers()]


@pytest.mark.parametrize("degree", [1, 2])
def test_bulk_preload_matches_per_file_path(degree):
    dep_a = deploy()
    for path, size in FILES:
        dep_a.preload_file(path, size, degree=degree)
    dep_b = deploy()
    assert dep_b.preload_files(FILES, degree=degree) == len(FILES)

    # Namespace listings: same keys, same entries modulo the fileid draw.
    items_a, items_b = _ns_items(dep_a), _ns_items(dep_b)
    assert [k for k, _ in items_a] == [k for k, _ in items_b]
    assert ([k for k, _ in items_b if k.startswith("f:")]
            == sorted(_file_key(p) for p, _ in FILES))
    for (ka, ea), (_, eb) in zip(items_a, items_b):
        if not ka.startswith("f:"):
            continue  # directory entries: not touched by preload
        ea, eb = dict(ea), dict(eb)
        assert ea.pop("fileid") != 0 and eb.pop("fileid") != 0
        assert ea == eb

    # Aggregate segment-store contents: same multiset of committed
    # segment (size, degree, committed) shapes, same byte totals.
    def seg_shapes(dep):
        shapes = []
        for p in dep.providers.values():
            for seg in p.store.committed_segments():
                shapes.append((seg.size, seg.replication_degree,
                               seg.committed, seg.extents.covered_bytes()))
        return sorted(shapes)

    assert seg_shapes(dep_a) == seg_shapes(dep_b)
    assert (sum(p.store.bytes_stored() for p in dep_a.providers.values())
            == sum(p.store.bytes_stored() for p in dep_b.providers.values()))
    assert (sum(p.node.fs.used for p in dep_a.providers.values())
            == sum(p.node.fs.used for p in dep_b.providers.values()))

    # FS accounting names the same files the stores hold.
    for p in dep_b.providers.values():
        for seg in p.store.committed_segments():
            f = p.node.fs.files[seg.fs_name]
            assert f.size == f.allocated == seg.size

    # WAL footprint: both paths log records of the same total size.
    def wal_bytes(dep):
        return sum(r.approx_bytes() for wal in _wal_logs(dep)
                   for r in wal.replay())

    assert wal_bytes(dep_a) == wal_bytes(dep_b) > 0

    # Location maps: as many rows as the per-file path registers, and
    # each table equal — row for row, in order, ages included — to one
    # filled by the same ``update`` calls made directly: per file in
    # load order, its data segments then its index segment, each
    # replica's claim registered at the segment's ring home.
    def loc_rows(table):
        return [(segid, table.age(segid, dep_b.sim.now),
                 [(h, table.record(segid, h)) for h, _v in table.lookup(segid)])
                for segid in table.segids()]

    hosts = sorted(dep_b.provider_names)
    ring = dep_b._preload_ring
    holders, index_meta = {}, {}
    for host in hosts:
        for seg in dep_b.providers[host].store.committed_segments():
            holders.setdefault(seg.segid, []).append(host)
            if seg.meta is not None:
                index_meta[seg.segid] = seg.meta
    expect = {host: LocationTable() for host in hosts}
    for path, _size in FILES:
        fileid = dep_b.namespace_for(path).db.get(_file_key(path))["fileid"]
        layout = index_meta[fileid]["layout"]
        for segid, size in [(r.segid, r.size) for r in layout.segments] \
                + [(fileid, 4096)]:
            held = holders.pop(segid)
            assert len(held) == degree
            # Replicas sit on consecutive hosts (cyclically); the first
            # is the one whose predecessor holds nothing.
            first = next(h for h in held
                         if hosts[hosts.index(h) - 1] not in held)
            k = hosts.index(first)
            for owner in (hosts[(k + r) % len(hosts)] for r in range(degree)):
                assert owner in held
                expect[ring.home_host(segid, hosts)].update(
                    segid, owner, 1, degree, size, dep_b.sim.now)
    assert holders == {}  # nothing stored that no file accounts for
    for host in hosts:
        assert loc_rows(dep_b.providers[host].loc) == loc_rows(expect[host])

    def n_records(dep):
        return sum(len(p.loc.lookup(segid)) for p in dep.providers.values()
                   for segid in p.loc.segids())

    assert n_records(dep_a) == n_records(dep_b)

    # The load must leave every secondary index coherent.
    for p in dep_b.providers.values():
        p.store.check_index_invariants()


def test_bulk_preload_readable_end_to_end():
    dep = deploy()
    dep.preload_files([("/pre", 3 * MB)], degree=2)
    client = dep.client_on("c00")

    def proc():
        fh = yield from client.open("/pre", "r")
        data = yield from client.read(fh, MB - 10, 20)
        return fh.size, data

    size, data = dep.run(proc())
    assert size == 3 * MB
    assert data is None  # synthetic content
