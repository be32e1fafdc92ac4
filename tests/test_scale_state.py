"""Scale-out state refactor: index-vs-scan equivalence.

The refactor replaced full scans of the SegmentStore version map with
maintained secondary indices; membership death checks and the location
table stayed (or went back to) flat dicts.  Every test here pits the
structure against a from-scratch recompute or a plain-dict model
(ordering included), over randomized or adversarial schedules.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import Node, small_cluster
from repro.core.membership import DEATH_FACTOR, MembershipManager
from repro.core.location import LocationTable, OwnerRecord
from repro.core.segment import SYNTHETIC, SegmentStore, StoredSegment
from repro.network import Fabric
from repro.sim import Simulator
from repro.storage import DISK_SPECS, Disk, LocalFS, StorageEngine


def make_store(engine=False):
    sim = Simulator()
    disk = Disk(sim, DISK_SPECS["ultrastar-dk32ej"])
    fs = LocalFS(sim, disk, capacity=64 << 20)
    if engine:   # a small write-back cache: evictions, dirty pages to lose
        fs.engine = StorageEngine(sim, disk, page_size=4096,
                                  cache_bytes=16 * 4096)
    return sim, SegmentStore(sim, fs)


def drive(sim, gen):
    return sim.run_process(sim.process(gen))


# ===================================================== SegmentStore index
op_strategy = st.lists(
    st.tuples(
        st.sampled_from(["create", "write", "commit", "shadow", "drop",
                         "drop_committed", "delete", "consolidate",
                         "plant", "ingest", "lose", "nospace", "crash",
                         "wipe"]),
        st.integers(min_value=0, max_value=3),      # segid selector
        st.integers(min_value=0, max_value=4096),   # offset / size knob
    ),
    min_size=1, max_size=40,
)


@settings(max_examples=30, deadline=None)
@given(ops=op_strategy)
@example(ops=[("create", 0, 0), ("commit", 0, 0), ("shadow", 0, 0),
              ("drop_committed", 0, 1),     # family alive, nothing committed
              ("write", 0, 64), ("commit", 0, 0), ("delete", 0, 0)])
@example(ops=[("create", 0, 0), ("write", 0, 64), ("commit", 0, 0),
              ("shadow", 0, 0), ("write", 0, 4096), ("nospace", 0, 100),
              ("create", 1, 0), ("write", 1, 0), ("crash", 0, 0),
              ("ingest", 2, 4096), ("shadow", 2, 0), ("write", 2, 8),
              ("wipe", 0, 0), ("create", 0, 0), ("write", 0, 512)])
def test_segment_indices_match_full_scan_after_any_schedule(ops):
    """After every mutation, each family's facts (ascending versions,
    latest-committed, first-commit order) and the byte counter must
    equal a recompute by scan.  Inserts come in all four kinds — first
    version of a segid or not, committed or not (``create`` / ``plant``
    are first versions, ``shadow`` is not, ``ingest`` lands at any
    version number) — and removals in all three: the last version of a
    family, an uncommitted one, and a committed one with others left
    (``drop_committed`` under a shadow is the arm where the family lives
    on with no committed version at all).  Behind the indices, the FS
    accounting oracle: ``used`` is every held version's allocation,
    through a ``NoSpace`` write that rolls back, a power loss whose lost
    dirty pages ``discard_lost`` reconciles, and a wiped disk."""
    sim, store = make_store(engine=True)
    fs = store.fs

    def scenario():
        planted = 10_000
        for op, sel, knob in ops:
            segid = 0xBEEF00 + sel
            versions = store.versions_of(segid)
            uncommitted = [v for v in versions
                           if not store.get(segid, v).committed]
            committed = [v for v in versions if v not in uncommitted]
            try:
                if op == "create" and not versions:
                    yield from store.create(segid, 1)
                elif op == "write" and uncommitted:
                    yield from store.write(segid, uncommitted[-1],
                                           knob, 512, data=b"x" * 512)
                elif op == "commit" and uncommitted:
                    yield from store.commit(segid, uncommitted[-1])
                elif op == "shadow" and committed:
                    yield from store.create_shadow(segid, committed[-1])
                elif op == "drop" and uncommitted:
                    yield from store.drop(segid, uncommitted[-1])
                elif op == "drop_committed" and committed:
                    # A replaced replica: the newest if ``knob`` is odd.
                    yield from store.drop(segid, committed[-(knob % 2)])
                elif op == "delete" and versions:
                    yield from store.delete_segment(segid)
                elif op == "consolidate" and len(committed) > 1:
                    yield from store.consolidate(segid, keep=1)
                elif op == "plant":
                    planted += 1
                    seg = StoredSegment(segid=planted, version=1, size=knob,
                                        committed=True, replication_degree=1,
                                        alpha=0.5, placement="load",
                                        last_access=sim.now)
                    if knob:
                        seg.extents.set_range(0, knob, SYNTHETIC)
                    store.plant(seg)
                elif op == "ingest":
                    yield from store.apply_diff(segid, 1 + knob % 6, knob)
                elif op == "lose" and versions:
                    store.lose_segment(segid)
                elif op == "nospace" and uncommitted:
                    yield from store.write(segid, uncommitted[-1], knob,
                                           fs.capacity)
                elif op == "crash":
                    fs.engine.on_crash()
                    for name in sorted(fs.engine.take_lost()):
                        store.discard_lost(name)
                elif op == "wipe":
                    fs.engine.on_crash()
                    fs.wipe()
            except Exception:
                pass  # illegal transitions may raise; indices must survive
            if op == "wipe":
                assert store.empty and fs.used == 0
            store.check_index_invariants()

    drive(sim, scenario())


def test_family_outlives_its_only_committed_version():
    """Dropping the only committed version while a shadow remains leaves
    the family alive with nothing committed; committing the shadow then
    re-enters ``committed_segments`` *after* a segid that committed in
    between — order is by insertion sequence, not by dict position."""
    sim, store = make_store()

    def scenario():
        yield from store.create(1, 1)
        yield from store.commit(1, 1)
        shadow = yield from store.create_shadow(1, 1)
        yield from store.create(2, 1)
        yield from store.commit(2, 1)
        assert [s.segid for s in store.committed_segments()] == [1, 2]
        yield from store.drop(1, 1)
        store.check_index_invariants()
        assert store.latest_committed(1) is None
        assert store.versions_of(1) == [2] and len(store) == 2
        assert [s.segid for s in store.committed_segments()] == [2]
        yield from store.commit(1, 2)
        store.check_index_invariants()
        assert store.latest_committed(1) is shadow
        # v2 was inserted before segid 2's v1, so family 1 sorts first.
        assert [s.segid for s in store.committed_segments()] == [1, 2]

    drive(sim, scenario())


def test_wipe_resets_every_index():
    sim, store = make_store()

    def scenario():
        for segid in (1, 2, 3):
            yield from store.create(segid, 1)
            yield from store.write(segid, 1, 0, 1024, data=b"y" * 1024)
            yield from store.commit(segid, 1)
        assert store.bytes_stored() > 0 and len(store) == 3
        store.fs.wipe()         # the disk goes, and the store's versions
        assert store.fs.used == 0
        assert len(store) == 0
        assert store.bytes_stored() == 0
        assert store.committed_segments() == []
        assert store.versions_of(1) == []
        store.check_index_invariants()
        # The store keeps working after the wipe (provider restart path).
        yield from store.create(1, 1)
        yield from store.commit(1, 1)
        assert [s.segid for s in store.committed_segments()] == [1]
        store.check_index_invariants()

    drive(sim, scenario())


def test_byte_counter_tracks_overwrite_and_drop():
    sim, store = make_store()

    def scenario():
        yield from store.create(7, 1)
        yield from store.write(7, 1, 0, 8192, data=b"a" * 8192)
        assert store.bytes_stored() == 8192
        yield from store.write(7, 1, 4096, 8192, data=b"c" * 8192)
        assert store.bytes_stored() == 12288
        yield from store.commit(7, 1)
        seg = yield from store.create_shadow(7, 1)
        yield from store.write(7, seg.version, 0, 1024, data=b"b" * 1024)
        assert store.bytes_stored() == 12288 + 1024
        yield from store.drop(7, seg.version)
        assert store.bytes_stored() == 12288
        store.check_index_invariants()

    drive(sim, scenario())


# ====================================================== membership expiry
def build_membership(n_providers=4, interval=1.0):
    sim = Simulator()
    fabric = Fabric(sim)
    spec = small_cluster(n_providers, n_compute=1)
    nodes = {s.name: Node(sim, fabric, s) for s in spec.nodes}
    providers = {
        s.name: MembershipManager(nodes[s.name], interval, announce=True)
        for s in spec.storage_nodes
    }
    listener = MembershipManager(nodes[spec.compute_nodes[0].name],
                                 interval, announce=False)
    return sim, nodes, providers, listener


def test_simultaneous_deaths_fire_in_membership_order():
    """Two providers crashing in the same instant expire in the same
    death-check tick; the leave callbacks must fire in the members-dict
    insertion order."""
    sim, nodes, providers, listener = build_membership(n_providers=5)
    sim.run(until=5)
    order_seen = list(listener.members)
    gone = []
    listener.on_leave.append(gone.append)
    crashed = [order_seen[3], order_seen[1]]  # reverse of scan order
    for h in crashed:
        nodes[h].crash()
    sim.run(until=sim.now + DEATH_FACTOR * 1.0 + 2.5)
    assert gone == [order_seen[1], order_seen[3]]
    assert sorted(set(order_seen) - set(crashed)) == listener.live_providers()


def test_clear_is_silent_and_death_tracking_resumes():
    """clear() (the provider-restart path) forgets every member without
    firing a leave, and re-observation rebuilds normal death tracking."""
    sim, nodes, providers, listener = build_membership(n_providers=3)
    sim.run(until=4)
    assert len(listener.live_providers()) == 3
    gone = []
    listener.on_leave.append(gone.append)
    listener.clear()
    assert listener.live_providers() == []
    assert gone == []  # clear() is silent: no synthetic deaths
    sim.run(until=sim.now + 3)
    assert len(listener.live_providers()) == 3  # heartbeats re-learned
    victim = listener.live_providers()[0]
    nodes[victim].crash()
    sim.run(until=sim.now + DEATH_FACTOR * 1.0 + 2.5)
    assert gone == [victim]


def test_snapshot_and_live_view_caches_invalidate_on_change():
    sim, nodes, providers, listener = build_membership(n_providers=3)
    sim.run(until=4)
    view1 = listener.live_providers()
    assert listener.live_providers() is view1  # cached object reused
    snap1 = listener.snapshot()
    victim = view1[0]
    nodes[victim].crash()
    sim.run(until=sim.now + DEATH_FACTOR * 1.0 + 2.5)
    view2 = listener.live_providers()
    assert view2 is not view1 and victim not in view2
    assert victim in snap1 and victim not in listener.snapshot()


# ======================================================== location table
#: Instants and ages on a half-second grid half the time, so refreshes
#: land exactly on a purge cutoff as well as either side of it.
grid_or_float = st.one_of(
    st.integers(min_value=0, max_value=40).map(lambda n: n / 2),
    st.floats(min_value=0.0, max_value=20.0))
segid_st = st.integers(min_value=0, max_value=7)
owner_st = st.sampled_from(["h0", "h1", "h2"])
# version 1..3: fresh rows, refreshes (>=) and stale announces (<)
update_st = st.tuples(st.just("update"), segid_st, owner_st,
                      st.integers(min_value=1, max_value=3))
step_strategy = st.one_of(
    update_st, update_st, update_st, update_st,   # tables fill up
    st.tuples(st.just("remove"), segid_st, owner_st),
    st.tuples(st.just("drop_owner"), owner_st),
    st.tuples(st.just("purge"), grid_or_float),
)


@settings(max_examples=150, deadline=None)
@given(steps=st.lists(st.tuples(grid_or_float, step_strategy),
                      min_size=12, max_size=60))
def test_location_table_matches_dict_model_after_any_schedule(steps):
    """``update`` / ``remove`` / ``drop_owner`` / ``purge`` in any order
    against a plain dict of rows: after every step the table lists the
    same segids in the same order with the same records and ages, and
    ``drop_owner`` / ``purge`` return what a scan of the model does
    (float boundaries included)."""
    table = LocationTable()
    model = {}        # segid -> {owner: OwnerRecord}, both in insertion order
    first_seen = {}

    def model_remove(segid, owner):
        model[segid].pop(owner)
        if not model[segid]:
            del model[segid], first_seen[segid]

    now = 0.0
    for i, (dt, (op, *args)) in enumerate(steps):
        now += dt
        if op == "update":
            segid, owner, version = args
            table.update(segid, owner, version, i, 64 + i, now)
            rows = model.setdefault(segid, {})
            first_seen.setdefault(segid, now)
            if owner not in rows or version >= rows[owner].version:
                rows[owner] = OwnerRecord(version, i, 64 + i, now)
            else:
                rows[owner].last_refresh = now
        elif op == "remove":
            segid, owner = args
            table.remove(segid, owner)
            if owner in model.get(segid, ()):
                model_remove(segid, owner)
        elif op == "drop_owner":
            (owner,) = args
            expect = [s for s, rows in model.items() if owner in rows]
            assert table.drop_owner(owner) == expect
            for segid in expect:
                model_remove(segid, owner)
        else:
            (max_age,) = args
            stale = [(s, h) for s, rows in model.items()
                     for h, rec in rows.items()
                     if rec.last_refresh < now - max_age]
            assert table.purge(now, max_age) == len(stale)
            for segid, owner in stale:
                model_remove(segid, owner)

        assert table.segids() == list(model) and len(table) == len(model)
        for segid in range(8):
            assert (segid in table) == (segid in model)
            assert table.age(segid, now) == (
                now - first_seen[segid] if segid in model else 0.0)
            for owner in ("h0", "h1", "h2"):
                assert table.record(segid, owner) \
                    == model.get(segid, {}).get(owner)


def test_drop_owner_returns_segids_in_insertion_order():
    table = LocationTable()
    rng = random.Random(3)
    segids = list(range(40))
    rng.shuffle(segids)
    for i, segid in enumerate(segids):
        table.update(segid, "dying", 1, 1, 64, float(i))
        if i % 3 == 0:
            table.update(segid, "other", 1, 1, 64, float(i))
    assert table.drop_owner("dying") == segids
    assert table.drop_owner("dying") == []
    survivors = {s for i, s in enumerate(segids) if i % 3 == 0}
    assert set(table.segids()) == survivors


# ======================================================= scale experiment
def test_scale_point_smoke():
    """A miniature scale point end to end: cluster forms, preload lands,
    Zipf/diurnal sessions all succeed, metrics row is sane."""
    from repro.experiments import scale

    row = scale.run_point(n_providers=20, n_files=128, n_sessions=40,
                          duration=3.0, seed=1)
    assert row["providers"] == 20
    assert row["sessions_failed"] == 0
    assert row["sessions_done"] == 40
    assert row["sim_s"] > 0 and row["events"] > 0
    assert scale.checks({20: row}) == []
