"""Bulk-preload equivalence: the fast path must build the same cluster
state as the per-file path.

:meth:`SorrentoDeployment.preload_files` draws ids from one shared
stream (the per-file path derives a stream per path), so the two paths
are not bit-identical — but everything *structural* must match: the
namespace listings (entries equal modulo fileid), the aggregate
segment-store contents, the filesystem accounting, the WAL byte
charges, and the location-map records.  The low-level fast-path inserts
(`SegmentStore.plant_fresh`, `LocationTable.plant`, `RangeMap.fill`)
are additionally pinned state-identical to their general counterparts.
"""

import random

import pytest

from repro.cluster import small_cluster
from repro.core import SorrentoConfig, SorrentoDeployment
from repro.core.extent import RangeMap
from repro.core.location import LocationTable
from repro.core.namespace import _file_key
from repro.core.params import SorrentoParams
from repro.core.segment import SYNTHETIC, StoredSegment

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

    # WAL byte charges: the per-entry footprint hint must add up to what
    # the unhinted per-record walk would have charged.
    for dep in (dep_a, dep_b):
        for wal in _wal_logs(dep):
            assert wal.bytes_appended == sum(
                r.approx_bytes() for r in wal.replay())
    assert (sum(w.bytes_appended for w in _wal_logs(dep_a))
            == sum(w.bytes_appended for w in _wal_logs(dep_b)))

    # Location maps: every stored replica is registered at its ring
    # home with the right claim, and nothing else is registered.
    def loc_records(dep):
        recs = []
        for host, p in dep.providers.items():
            for segid in p.loc.segids():
                for owner, rec in p.loc._entries[segid].items():
                    recs.append((host, segid, owner, rec.version,
                                 rec.degree, rec.size))
        return recs

    recs_b = loc_records(dep_b)
    assert len(recs_b) == len(loc_records(dep_a))
    by_key = {(h, s, o): (v, d, z) for h, s, o, v, d, z in recs_b}
    n_replicas = 0
    members = sorted(dep_b.provider_names)
    ring = dep_b._preload_ring
    for host, p in dep_b.providers.items():
        for seg in p.store.committed_segments():
            n_replicas += 1
            home = ring.home_host(seg.segid, members)
            assert by_key[(home, seg.segid, host)] == (1, degree, seg.size)
    assert len(recs_b) == n_replicas

    # The fast-path inserts must leave every secondary index coherent.
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


# ----------------------------------------------- low-level fast paths
def _seg(segid, version=1, size=2 * MB, committed=True):
    seg = StoredSegment(segid=segid, version=version, size=size,
                        committed=committed, last_access=0.0)
    if size:
        seg.extents.set_range(0, size, SYNTHETIC)
    return seg


def test_plant_fresh_state_identical_to_plant():
    dep = deploy(n_storage=2)
    a, b = (dep.providers[h].store for h in sorted(dep.providers)[:2])
    rng = random.Random(7)
    segs = [_seg(rng.getrandbits(128), size=rng.randrange(0, 4 * MB))
            for _ in range(40)]
    # Re-plant one segid at a higher version: plant_fresh must take the
    # general fallback and still match.
    segs.append(_seg(segs[0].segid, version=2))
    for seg_a, seg_b in zip(segs, segs):
        a.plant(_seg(seg_a.segid, seg_a.version, seg_a.size))
        b.plant_fresh(_seg(seg_b.segid, seg_b.version, seg_b.size))
    a.check_index_invariants()
    b.check_index_invariants()
    assert set(a._segs) == set(b._segs)
    assert a._seq == b._seq
    assert a._versions == b._versions
    assert a._commit_seq == b._commit_seq
    assert a._bytes == b._bytes
    assert set(a._latest) == set(b._latest)
    for segid in a._latest:
        assert a._latest[segid].version == b._latest[segid].version


def test_location_plant_state_identical_to_update():
    rng = random.Random(11)
    a, b = LocationTable(), LocationTable()
    pairs = {(rng.getrandbits(64), f"p{rng.randrange(6):03d}")
             for _ in range(50)}
    for segid, owner in sorted(pairs):
        a.update(segid, owner, 1, 2, 4096, 12.5)
        b.plant(segid, owner, 1, 2, 4096, 12.5)
    assert a._entries == b._entries
    assert a._first_seen == b._first_seen
    assert a._ins_seq == b._ins_seq
    assert a._by_owner == b._by_owner
    assert a._rwheel == b._rwheel
    assert a._rtick == b._rtick


def test_rangemap_fill_matches_set_range():
    for end in (1, 4096, 3 * MB):
        a, b = RangeMap(), RangeMap()
        a.set_range(0, end, SYNTHETIC)
        b.fill(end, SYNTHETIC)
        b.check_invariants()
        assert list(a) == list(b)
        assert a.covered_bytes() == b.covered_bytes()
    with pytest.raises(ValueError):
        RangeMap().fill(0, SYNTHETIC)
