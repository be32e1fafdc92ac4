"""Self-organization without processes: the provider's deferred checks
(join refresh, supervision, re-check, trim verification) are slotted
callbacks, and its refresh paths share one home-host bucketing of the
store.  Each test keeps the shape that was replaced as its oracle: the
per-join full scan of the store, a fresh scan per mutation, one ring
asked about both member views."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Node, small_cluster
from repro.core import SorrentoConfig, SorrentoDeployment
from repro.core.hashing import HashRing
from repro.core.params import SorrentoParams
from repro.core.location import LOC_ENTRY_BYTES
from repro.core.provider import StorageProvider
from repro.core.segment import SYNTHETIC, StoredSegment
from repro.network import Fabric
from repro.sim import Simulator

GB = 1 << 30

#: The loops a provider node runs for life: loadmon, loc-refresh,
#: shadow-sweep, migration, member-check, hb-announce — plus, on the
#: namespace host, its checkpoint and WAL-flush loops.
DAEMON_LOOPS = 8


def plant(provider, rng, n, degree=1):
    for _ in range(n):
        size = rng.randrange(1, 1 << 16)
        seg = StoredSegment(segid=rng.getrandbits(128), version=1, size=size,
                            committed=True, replication_degree=degree,
                            last_access=provider.sim.now)
        seg.extents.set_range(0, size, SYNTHETIC)
        provider.store.plant(seg)


def scan_by_home(provider, members):
    """The bucketing as a from-scratch scan, on a ring of its own."""
    ring = HashRing(provider.params.ring_vnodes)
    by_home = {}
    for seg in provider.store.committed_segments():
        by_home.setdefault(ring.home_host(seg.segid, members), []).append(
            (seg.segid, seg.version, seg.replication_degree, seg.size))
    return by_home


# ------------------------------------------------------------ formation
def test_formation_refreshes_from_callbacks_what_the_full_scans_sent():
    dep = SorrentoDeployment(
        small_cluster(20, n_compute=1, capacity_per_node=4 * GB),
        SorrentoConfig(params=SorrentoParams(), seed=5))
    rng = random.Random(5)
    for provider in dep.providers.values():
        plant(provider, rng, 40)
    sent, expected = [], []

    def watch(provider):
        host = provider.node.hostid
        send, refresh_toward = provider.rpc.send, provider.owner._refresh_toward

        def recording_send(dst, service, payload, size=0):
            if service == "loc_refresh":
                sent.append((dep.sim.now, host, dst, payload, size))
            return send(dst, service, payload, size=size)

        def checked_refresh_toward(joiner):
            # What the parent's generator did at this instant: scan the
            # whole store for the segments the joiner is home for.
            members = provider.membership.live_providers()
            entries = scan_by_home(provider, members).get(joiner) \
                if joiner in members else None
            if entries:
                expected.append((dep.sim.now, host, joiner,
                                 {"owner": host, "entries": entries},
                                 32 + LOC_ENTRY_BYTES * len(entries)))
            refresh_toward(joiner)

        provider.rpc.send = recording_send
        provider.owner._refresh_toward = checked_refresh_toward

    for provider in dep.providers.values():
        watch(provider)
    dep.sim.run(until=2.0)
    # Every view is complete and nearly every refresh still pending —
    # in its provider's queue, one heap entry per queue, no process: only
    # the daemon loops are alive.
    queued = sum(len(p.owner._joins) for p in dep.providers.values())
    assert queued > 20 * 19 * 0.8
    assert dep.sim.pending_events < queued
    for provider in dep.providers.values():
        assert len(provider.membership.live_providers()) == 20
        assert len(provider.node._procs) <= DAEMON_LOOPS
    dep.sim.run(until=21.5)                  # join_refresh_delay_max + slack
    assert len(expected) > 20 * 19 * 0.8     # 40 segments over 20 homes
    assert sent == expected
    # One scan per provider once the view was complete, not one per join.
    for provider in dep.providers.values():
        assert len(provider.node._procs) <= DAEMON_LOOPS
        assert provider.owner._buckets[0] is \
            provider.membership.live_providers()


# ----------------------------------------------------------- bucketing
_MEMBERS = ["s00", "s01", "s02", "s03"]
_STORE_OPS = st.lists(
    st.tuples(st.sampled_from(["create", "commit", "shadow", "ingest",
                               "drop", "drop_committed", "delete", "plant",
                               "lose", "wipe", "view"]),
              st.integers(0, 5), st.integers(0, 4096)),
    min_size=1, max_size=30)


@given(_STORE_OPS)
@settings(max_examples=60, deadline=None)
def test_bucketing_never_outlives_the_store_state_it_was_built_from(ops):
    """After every store mutation — a create, a first commit, a version
    advance, an ingest, a drop, a loss, a wipe — and every change of
    member view, the kept bucketing and the entries read through it
    equal a fresh scan; between changes it is the same object."""
    sim = Simulator()
    node = Node(sim, Fabric(sim), small_cluster(1).nodes[0])
    provider = StorageProvider(node, "vol", SorrentoParams())
    store = provider.store
    members = list(_MEMBERS)

    def check():
        kept = provider.owner._by_home(members)
        got = {home: provider.owner._refresh_entries(segids)
               for home, segids in kept.items()}
        want = scan_by_home(provider, members)
        assert got == want and list(got) == list(want)
        assert provider.owner._by_home(members) is kept

    def scenario():
        nonlocal members
        planted = 10_000
        for op, sel, knob in ops:
            segid = 0xBEEF00 + sel
            versions = store.versions_of(segid)
            shadows = [v for v in versions
                       if not store.get(segid, v).committed]
            committed = [v for v in versions if v not in shadows]
            try:
                if op == "create" and not versions:
                    yield from store.create(segid, 1)
                elif op == "commit" and shadows:
                    yield from store.commit(segid, shadows[-1])
                elif op == "shadow" and committed:
                    yield from store.create_shadow(segid, committed[-1])
                elif op == "ingest":
                    yield from store.apply_diff(segid, 1 + knob % 6, knob)
                elif op == "drop" and shadows:
                    yield from store.drop(segid, shadows[-1])
                elif op == "drop_committed" and committed:
                    yield from store.drop(segid, committed[-(knob % 2)])
                elif op == "delete" and versions:
                    yield from store.delete_segment(segid)
                elif op == "plant":
                    planted += 1
                    store.plant(StoredSegment(segid=planted, version=1,
                                              committed=True))
                elif op == "lose" and versions:
                    store.lose_segment(segid)
                elif op == "wipe":
                    store.wipe()
                elif op == "view":
                    members = _MEMBERS[:2 + knob % 3]   # a new list object
            except Exception:
                pass        # an ingest over a held version raises
            check()

    sim.run_process(sim.process(scenario()))


def test_each_store_write_path_drops_the_bucketing():
    sim = Simulator()
    node = Node(sim, Fabric(sim), small_cluster(1).nodes[0])
    provider = StorageProvider(node, "vol", SorrentoParams())
    store = provider.store
    members = list(_MEMBERS)

    def scenario():
        seen = [provider.owner._by_home(members)]

        def dropped():
            seen.append(provider.owner._by_home(members))
            return seen[-1] is not seen[-2]

        assert not dropped()                        # nothing changed
        yield from store.create(1, 1)
        assert dropped()                            # a create
        yield from store.commit(1, 1)
        assert dropped() and seen[-1] != seen[-2]   # a first commit
        yield from store.apply_diff(2, 3, 100)
        assert dropped() and seen[-1] != seen[-2]   # an ingest
        yield from store.create_shadow(1, 1)
        yield from store.commit(1, 2)
        assert dropped() and seen[-1] == seen[-2]   # same segids, but the
        assert [e[1] for e in provider.owner._refresh_entries([1, 2])] == [2, 3]
        yield from store.drop(2, 3)                 # entries are read now
        assert dropped() and seen[-1] != seen[-2]   # a drop
        assert not dropped()
        assert provider.owner._by_home(list(members)) is not seen[-1]  # a new view

    sim.run_process(sim.process(scenario()))


# ------------------------------------------------------------- re-homing
def _ring_work_across_a_departure(n_segments):
    dep = SorrentoDeployment(
        small_cluster(5, n_compute=1, capacity_per_node=4 * GB),
        SorrentoConfig(params=SorrentoParams(), seed=9))
    dep.warm_up(25.0)                        # past the join refreshes
    names = sorted(dep.providers)
    keeper, dead = dep.providers[names[1]], names[3]
    plant(keeper, random.Random(9), n_segments)
    keeper.owner.home_of(0)                  # the ring's first, bulk, build
    before = dict(keeper.owner.ring.stats)
    dep.nodes[dead].crash()
    dep.sim.run(until=dep.sim.now + 12.0)    # death verdict + re-announce
    survivors = keeper.membership.live_providers()
    assert dead not in survivors
    orphaned = scan_by_home(keeper, sorted(names)).get(dead, [])
    rehomed = scan_by_home(keeper, survivors)
    for segid, *_ in orphaned:
        home = next(h for h, entries in rehomed.items()
                    if any(e[0] == segid for e in entries))
        assert (keeper.node.hostid, 1) in dep.providers[home].home.table.lookup(segid)
    work = {k: keeper.owner.ring.stats[k] - before[k]
            for k in ("splices", "adoptions", "bulk_builds", "reconciles")}
    # One step per departure: the new set is derived by one splice, or
    # adopted from another ring that derived it first.
    return {"steps": work["splices"] + work["adoptions"],
            "bulk_builds": work["bulk_builds"],
            "reconciles": work["reconciles"]}, len(orphaned)


def test_rehoming_costs_the_ring_one_departure_however_many_segments():
    few, orphaned_few = _ring_work_across_a_departure(10)
    many, orphaned_many = _ring_work_across_a_departure(400)
    assert orphaned_many > orphaned_few + 20
    assert few == many == {"steps": 1, "bulk_builds": 0, "reconciles": 0}
