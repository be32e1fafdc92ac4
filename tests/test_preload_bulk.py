"""Preload: one planting loop, two ways to feed it streams.

:meth:`SorrentoDeployment.preload_file` and
:meth:`SorrentoDeployment.preload_files` run the same loop; they differ
only in the streams handed to it.  The per-file call draws its id from
``"preload-ids"`` and its layout and start host from ``"preload:{path}"``;
the bulk call draws all of them from one shared ``"preload-bulk"``
stream.  So the two are not bit-identical — but everything *structural*
must match: the namespace listings (entries equal modulo fileid), the
aggregate segment-store contents, the filesystem accounting, the WAL
byte charges, and the location-map records.  The loop inserts through
the public methods (``SegmentStore.plant``, ``LocationTable.update``,
``RangeMap.set_range``); the location tables are additionally rebuilt
from the planted stores by direct ``update`` calls and compared row for
row.  What the per-file call plants is pinned bit for bit by a digest.
"""

import hashlib

import pytest

from repro.cluster import small_cluster
from repro.core import SorrentoConfig, SorrentoDeployment
from repro.core.location import LocationTable
from repro.core.namespace import FileEntry, _file_key
from repro.core.params import SorrentoParams
from repro.core.segment import SYNTHETIC

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
        ea, eb = ea.to_dict(), eb.to_dict()
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

    # FS accounting: each planted version is its own dense file record.
    for p in dep_b.providers.values():
        for seg in p.store.committed_segments():
            assert seg.file_size == seg.allocated == seg.size

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
        fileid = dep_b.namespace_for(path).db.get(_file_key(path)).fileid
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
        assert loc_rows(dep_b.providers[host].home.table) == loc_rows(expect[host])

    def n_records(dep):
        return sum(len(p.home.table.lookup(segid))
                   for p in dep.providers.values()
                   for segid in p.home.table.segids())

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


# ------------------------------------------------------- per-file digest
KB = 1 << 10

DIGEST_CALLS = [
    ("/d1/a", 3 * MB, dict(degree=1)),
    ("/d1/b", 12 * KB, dict(degree=1, alpha=0.9, placement="locality")),
    ("/d2/a", 5 * MB, dict(degree=2, placement="random", alpha=0.1)),
    ("/d2/b", 0, dict(degree=2)),
    ("/d3/a", 2 * MB, dict(degree=3, on=["s01", "s03", "s04"])),
    ("/d3/b", 9 * MB, dict(degree=3, alpha=0.7, placement="locality")),
    ("/on1", 1 * MB, dict(degree=2, on=["s02"])),
]


def fs_files(p):
    """``(name, logical size, allocated)`` of every file on a provider's
    FS: the files known by name, and the segment versions (each its own
    file record, named on demand; every planted segid holds a committed
    version)."""
    store = p.store
    rows = [(n, f.file_size, f.allocated) for n, f in p.node.fs.files.items()]
    for top in store.committed_segments():
        for v in store.versions_of(top.segid):
            seg = store.get(top.segid, v)
            rows.append((seg.fs_name, seg.file_size, seg.allocated))
    return rows


def planted_digest(dep, entries):
    """SHA-256 over every planted structure: each store's committed
    segments in order (``seq``, ``last_access``, extents, index meta),
    its byte counter and FS files and ``used``; each location table's
    rows in order with their ages and records; every namespace item and
    WAL record; and the entries the calls returned.  A stored
    ``FileEntry`` is hashed as the dict it replaced, so the digest
    recorded over dict values still pins it."""
    h = hashlib.sha256()

    def put(*parts):
        h.update(repr(parts).encode())

    def as_dict(value):
        return value.to_dict() if isinstance(value, FileEntry) else value

    for name in sorted(dep.providers):
        p = dep.providers[name]
        for seg in p.store.committed_segments():
            meta = seg.meta
            if meta is not None:
                meta = (meta["layout"].size,
                        [(r.segid, r.version, r.size, r.max_size)
                         for r in meta["layout"].segments],
                        meta["attached"], meta["attached_len"])
            put(name, seg.segid, seg.version, seg.size, seg.committed,
                seg.replication_degree, seg.alpha, seg.placement,
                seg.last_access, seg.seq, seg.fs_name, meta,
                list(seg.extents))
        put(name, p.store.bytes_stored(), p.node.fs.used,
            sorted(fs_files(p)))
        table = p.home.table
        for segid in table.segids():
            put(name, segid, table.age(segid, dep.sim.now),
                [(o, v, table.record(segid, o)) for o, v in
                 table.lookup(segid)])
    for server in dep.namespace_servers():
        put([(k, as_dict(v)) for k, v in server.db.items()])
        put([(r.lsn, r.op, r.key, as_dict(r.value))
             for r in server.db._wal.replay()])
    put([as_dict(e) for e in entries])
    return h.hexdigest()


def test_per_file_preload_plants_what_it_always_did():
    """Degrees 1-3, ``on=`` subsets, mixed placement and alpha, an empty
    file, over two namespace shards: the digest recorded when
    ``preload_file`` had a planting loop of its own."""
    dep = SorrentoDeployment(
        small_cluster(5, n_compute=2, capacity_per_node=8 << 30),
        SorrentoConfig(seed=7, namespace_shards=2))
    dep.warm_up()
    entries = []
    for path, size, kw in DIGEST_CALLS:
        entry = dep.preload_file(path, size, **kw)
        # The stored object itself: workloads mutate it in place.
        assert entry is dep.namespace_for(path).db.get(_file_key(path))
        entries.append(entry)
    assert planted_digest(dep, entries) == (
        "e049ccb20092d44c7f34c009d4d3039ca947539d130dd55dc4b3e580a0685572")


def test_an_in_place_write_to_a_planted_replica_changes_only_it():
    """Planted segments of one size share one extent map.  A
    versioning-off write into one replica (an overwrite with literal
    bytes, then an append past the end) copies it first: the other
    replica of that segment and every other planted segment still read
    one full synthetic extent, and every store's byte counter holds."""
    dep = deploy()
    dep.preload_files([(f"/s/{i}", MB) for i in range(4)], degree=2)
    planted = [(p, seg) for p in dep.providers.values()
               for seg in p.store.committed_segments() if seg.meta is None]
    assert len(planted) == 4 * 2
    assert len({id(seg.extents) for _, seg in planted}) == 1
    before = {h: p.store.bytes_stored() for h, p in dep.providers.items()}
    owner, target = planted[0]
    store = owner.store

    def write():
        yield from store.write(target.segid, 1, 4096, 100, data=b"x" * 100,
                               in_place=True)
        yield from store.write(target.segid, 1, MB, 100, in_place=True)
        data = yield from store.read(target.segid, 1, 4000, 200)
        return data

    assert dep.run(write()) == bytes(96) + b"x" * 100 + bytes(4)
    assert target.size == MB + 100
    for _, seg in planted:
        if seg is not target:
            assert list(seg.extents) == [(0, MB, SYNTHETIC)]
    for h, p in dep.providers.items():
        p.store.check_index_invariants()
        grew = 100 if p is owner else 0
        assert p.store.bytes_stored() == before[h] + grew
