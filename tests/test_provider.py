"""Provider-daemon behaviour tests: location protocol, repair, migration."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import small_cluster
from repro.core import SorrentoConfig, SorrentoDeployment
from repro.core.client import SorrentoError
from repro.core.params import SorrentoParams
from repro.tools import ClusterInspector

MB = 1 << 20


def deploy(n_storage=4, degree=1, seed=11, **over):
    params = SorrentoParams(default_degree=degree, **over)
    dep = SorrentoDeployment(
        small_cluster(n_storage, n_compute=2, capacity_per_node=8 << 30),
        SorrentoConfig(params=params, seed=seed),
    )
    dep.warm_up()
    return dep


def holders(dep, segid):
    return sorted(
        h for h, p in dep.providers.items()
        if p.node.alive and p.store.latest_committed(segid) is not None
    )


def write_file(dep, client, path, size=2 * MB, **create):
    def gen():
        fh = yield from client.open(path, "w", create=True, **create)
        yield from client.write(fh, 0, size)
        yield from client.close(fh)
        return fh

    return dep.run(gen())


# ------------------------------------------------------------- location
def test_home_host_learns_new_segments_quickly():
    dep = deploy()
    client = dep.client_on("c00")
    fh = write_file(dep, client, "/loc")
    dep.sim.run(until=dep.sim.now + 2)
    segid = fh.layout.segments[0].segid
    home = dep.providers[client._home_of(segid)]
    assert home.home.table.lookup(segid), "home host missing the new segment"


def test_backup_probe_finds_segment_with_cold_tables():
    """Section 3.4.2: the multicast query covers location-table loss."""
    dep = deploy()
    client = dep.client_on("c00")
    write_file(dep, client, "/probe")
    for p in dep.providers.values():
        p.home.reset()           # wipe all soft state
    client.loc_cache.clear()     # ...including the client's cached claims
    client.meta_cache.clear()
    before = client.stats["probe_fallbacks"]

    def read():
        fh = yield from client.open("/probe", "r")
        yield from client.read(fh, 0, 1024)
        yield from client.close(fh)

    dep.run(read())
    assert client.stats["probe_fallbacks"] > before


def test_periodic_refresh_rebuilds_tables():
    """Soft state: tables repopulate within one refresh cycle."""
    dep = deploy(refresh_cycle=30.0)
    client = dep.client_on("c00")
    fh = write_file(dep, client, "/refresh")
    segid = fh.layout.segments[0].segid
    for p in dep.providers.values():
        p.home.reset()
    dep.sim.run(until=dep.sim.now + 65)  # > cycle + stagger
    home = dep.providers[client._home_of(segid)]
    assert home.home.table.lookup(segid)


def test_garbage_entries_purged_by_age():
    dep = deploy(refresh_cycle=20.0)
    p = next(iter(dep.providers.values()))
    # Inject a garbage entry that nobody will ever refresh.
    p.home.table.update(0xDEAD, "nonexistent-host", 1, 1, 100, dep.sim.now)
    dep.sim.run(until=dep.sim.now + 20.0 * 2.5 + 25)
    assert 0xDEAD not in p.home.table


def test_every_table_change_says_what_follows(monkeypatch):
    """Each ``LocationHome`` change and the supervision checks it defers,
    as (delay, check, segid).  A restart's ``reset`` empties the
    pending-check sets too: their deferred checks died with the node, and
    a segid left in one would never be checked again."""
    dep = deploy()
    p = dep.providers["s01"]
    home = p.home
    deferred = []
    monkeypatch.setattr(p.node, "defer", lambda delay, fn, arg:
                        deferred.append((delay, fn.__name__, arg)))

    def follows(change, *args):
        deferred.clear()
        change(*args)
        return deferred[:]

    later = p.params.repair_delay
    assert follows(home.claim, 0xA, "s02", 1, 2, 100) == [(0.0, "_supervise", 0xA)]
    home.claim(0xB, "s02", 1, 2, 100)
    home.claim(0xB, "s01", 1, 2, 100)
    home.claim(0xC, "s03", 1, 2, 100)
    home.claim(0xD, "s03", 1, 2, 100)
    assert follows(home.withdraw, 0xA, "s02") == [(0.0, "_supervise", 0xA)]
    assert follows(home.withdraw, 0xB, "s01") == [(0.0, "_supervise", 0xB)]
    assert follows(home.drop_owner, "s03") == [(later, "_supervise", 0xC),
                                               (later, "_supervise", 0xD)]
    assert {0xA, 0xC, 0xD}.isdisjoint(home.table.segids())
    assert home.table.lookup(0xB) == [("s02", 1)]
    home.table.update(0xE, "gone", 1, 1, 100, dep.sim.now - 1e6)
    assert follows(home.purge) == []
    assert 0xE not in home.table and 0xB in home.table
    home._recheck_pending.add(0xB)
    home._trim_pending.add(0xB)
    assert follows(home.reset) == [] and len(home.table) == 0
    assert home._recheck_pending == home._trim_pending == set()


def test_a_restarted_home_rechecks_what_its_crash_left_pending():
    """A home that crashes with supervision checks pending must not keep
    their segids marked pending after it restarts: the checks died with
    the node, and a marked segid would never be checked again (one
    replica short until a refresh cycle)."""
    from repro.faults import FaultPlan, NodeCrash, NodeRestart, inject

    dep = SorrentoDeployment(small_cluster(5, 2), SorrentoConfig(
        params=SorrentoParams(default_degree=2, repair_delay=5.0), seed=1))
    dep.warm_up()
    client = dep.client_on("c00")
    inject(dep, FaultPlan().at(4.0, NodeCrash("s03"))
                           .at(14.0, NodeRestart("s03")))

    def writer():
        for i in range(40):
            try:
                fh = yield from client.open(f"/e{i}", "w", create=True)
                yield from client.write(fh, 0, 300 * 1024)
                yield from client.close(fh)
            except SorrentoError:
                pass

    dep.run(writer())
    dep.sim.run(until=dep.sim.now + 300)
    report = ClusterInspector(dep).replica_report()
    assert report.total_segments == 80
    assert report.ok, report.under_replicated


# ------------------------------------------------------------- repair
def test_stale_replica_syncs_to_latest():
    dep = deploy(degree=2)
    client = dep.client_on("c00")
    write_file(dep, client, "/sync", size=MB)
    dep.sim.run(until=dep.sim.now + 60)

    def rewrite():
        fh = yield from client.open("/sync", "w")
        yield from client.write(fh, 0, MB)
        yield from client.close(fh)
        return fh

    fh = dep.run(rewrite())
    dep.sim.run(until=dep.sim.now + 90)
    segid = fh.layout.segments[0].segid
    versions = {
        p.store.latest_committed(segid).version
        for p in dep.providers.values()
        if p.store.latest_committed(segid) is not None
    }
    assert versions == {2}


def test_migration_never_loses_the_last_replica():
    """Regression: trim must not race a migration into data loss."""
    dep = deploy(n_storage=4, degree=1, migration_interval=15.0,
                 locality_min_samples=5, repair_cooldown=10.0)
    hosts = sorted(dep.providers)
    reader_host = hosts[0]
    other = hosts[1]
    dep.preload_file("/hot", 4 * MB, degree=1, placement="locality",
                     on=[other])
    client = dep.client_on(reader_host)

    def hammer():
        fh = yield from client.open("/hot", "r")
        for i in range(120):
            yield from client.read(fh, (i % 3) * MB, MB)
            yield dep.sim.timeout(1.0)
        yield from client.close(fh)

    proc = dep.sim.process(hammer())
    dep.sim.run(until=dep.sim.now + 200)
    assert proc.triggered
    # Every data segment must still exist somewhere, at all times ending.
    entry = dep.ns.db.get("f:/hot")
    assert entry is not None
    provider = dep.providers[reader_host]
    moved = sum(p.stats["migrations"] for p in dep.providers.values())
    assert moved > 0, "locality migration never happened"
    # Data now lives with the reader...
    assert provider.store.committed_segments()
    # ...and no segment vanished cluster-wide.
    total_live = sum(
        len(p.store.committed_segments()) for p in dep.providers.values()
    )
    assert total_live >= 3  # 3 data segments + index (maybe still remote)


def test_over_replication_trimmed_eventually():
    dep = deploy(n_storage=4, degree=2, repair_cooldown=5.0)
    client = dep.client_on("c00")
    fh = write_file(dep, client, "/extra", size=MB)
    segid = fh.layout.segments[0].segid
    dep.sim.run(until=dep.sim.now + 60)
    assert len(holders(dep, segid)) == 2
    # Force a third replica onto a node that shouldn't have one.
    spare = next(h for h in dep.providers if h not in holders(dep, segid))

    def inject():
        owner = holders(dep, segid)[0]
        yield from dep.providers[spare].node.runtime.call(
            spare, "seg_replicate",
            {"segid": segid, "version": 2 if False else 1, "from": owner},
            size=48)

    # Inject via direct handler call on the spare provider.
    sp = dep.providers[spare]
    owner = holders(dep, segid)[0]
    dep.run(sp._h_seg_replicate({"segid": segid, "version": 1,
                                 "from": owner}, "test"))
    assert len(holders(dep, segid)) == 3
    dep.sim.run(until=dep.sim.now + 120)
    assert len(holders(dep, segid)) == 2, "excess replica never trimmed"


def test_a_homes_own_erase_is_supervised():
    """A degree-2 segment held by its own home and one other host: when
    the home erases its copy (trim, migration, delete), the withdrawal is
    supervised like a remote owner's, and the degree comes back."""
    dep = deploy(n_storage=4, degree=2)
    client = dep.client_on("c00")
    segids = [write_file(dep, client, f"/own{i}", size=MB).layout
              .segments[0].segid for i in range(4)]
    dep.sim.run(until=dep.sim.now + 60)
    segid, home = next(
        (s, client._home_of(s)) for s in segids
        if client._home_of(s) in holders(dep, s)
        and len(holders(dep, s)) == 2)

    dep.run(dep.providers[home]._erase(segid))
    assert len(holders(dep, segid)) == 1
    dep.sim.run(until=dep.sim.now + 10)
    assert len(holders(dep, segid)) == 2


# ----------------------------------------------------------- membership
def test_provider_restart_rebuilds_location_table():
    dep = deploy()
    client = dep.client_on("c00")
    fh = write_file(dep, client, "/restart", size=MB)
    victim = next(h for h in sorted(dep.providers) if h != dep.ns_host)
    dep.nodes[victim].crash()
    dep.sim.run(until=dep.sim.now + 15)
    dep.nodes[victim].restart()
    dep.sim.run(until=dep.sim.now + 30)
    assert dep.providers[victim].node.alive
    assert victim in dep.providers[dep.ns_host].membership.live_providers()


def test_no_answer_slot_survives_a_provider_crash_and_restart():
    """A daemon loop waiting in a call when its node crashes is
    interrupted; the answer it was waiting for must not sit in the
    restarted provider's runtime for the rest of the run."""
    from repro.sim import Interrupt

    dep = deploy()
    victim, other = [h for h in sorted(dep.providers) if h != dep.ns_host][:2]
    node = dep.providers[victim].node

    def stall(payload, src):
        yield dep.sim.timeout(2.0)

    dep.providers[other].node.runtime.register("stall", stall)

    def daemon():
        try:
            yield from node.runtime.call(other, "stall")
        except Interrupt:
            pass

    node.spawn(daemon(), name="stalled")
    dep.sim.run(until=dep.sim.now + 1)
    waiting = set(node.runtime._pending)
    assert waiting
    dep.nodes[victim].crash()
    dep.sim.run(until=dep.sim.now + 15)
    dep.nodes[victim].restart()
    dep.sim.run(until=dep.sim.now + 30)
    assert waiting.isdisjoint(node.runtime._pending)


def test_crashed_provider_leaves_membership_everywhere():
    dep = deploy()
    victim = sorted(dep.providers)[1]
    dep.nodes[victim].crash()
    dep.sim.run(until=dep.sim.now + 12)
    for h, p in dep.providers.items():
        if h == victim:
            continue
        assert victim not in p.membership.live_providers()


# ------------------------------------------------- repair-history index
class _FlatRepairHistory:
    """The repair history as one flat dict scanned whole per check — the
    shape the per-segment index replaced, kept as its oracle."""

    def __init__(self, cooldown):
        self.cooldown = cooldown
        self.recent = {}

    def throttled(self, segid, action, host, now):
        key = (segid, action, host)
        if self.recent.get(key, -1e18) > now - self.cooldown:
            return True
        self.recent[key] = now
        if len(self.recent) > 10000:
            cutoff = now - self.cooldown
            self.recent = {k: t for k, t in self.recent.items() if t > cutoff}
        return False

    def pending(self, segid, owners, now):
        return {
            h for (sid, action, h), t in self.recent.items()
            if sid == segid and action == "repl" and h not in owners
            and t > now - self.cooldown
        }


def _drive_both_histories(home, seed, n_segments, n_hosts, max_step):
    """One random throttle history through the home host's index and the
    flat oracle: same verdicts, same in-flight replication sets.  Returns
    whether the index shrank on the way (its prune dropped something)."""
    home._repair_recent = {}
    flat = _FlatRepairHistory(home.params.repair_cooldown)
    rng = random.Random(seed)
    hosts = [f"h{i}" for i in range(n_hosts)]
    now = 0.0
    pruned = False
    for step in range(16_000):
        now += rng.random() * max_step
        segid = rng.randrange(n_segments)
        action = rng.choice(("repl", "repl", "sync", "trim"))
        host = rng.choice(hosts)
        groups = len(home._repair_recent)
        assert home._repair_throttled(segid, action, host, now) \
            == flat.throttled(segid, action, host, now)
        pruned = pruned or len(home._repair_recent) < groups
        if step % 16 == 0:
            probe = rng.randrange(n_segments)
            owners = set(rng.sample(hosts, rng.randrange(n_hosts)))
            assert home._sent_recently(probe, "repl", now) - owners \
                == flat.pending(probe, owners, now)
    return pruned


@pytest.fixture(scope="module")
def repair_home():
    return deploy().providers["s00"].home


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_segments=st.integers(50, 8000),
       n_hosts=st.integers(2, 6), max_step=st.floats(0.006, 0.03))
def test_indexed_repair_history_matches_the_flat_scan(
        repair_home, seed, n_segments, n_hosts, max_step):
    """Few segments: entries repeat, throttle and expire.  Many: groups
    pile up past either structure's 10 000-entry prune.  (The step keeps
    fewer than 10 000 entries inside one cooldown: past that the flat
    oracle rebuilds its dict on every insert.)"""
    _drive_both_histories(repair_home, seed, n_segments, n_hosts,
                          max_step)


def test_indexed_repair_history_matches_across_its_prune(repair_home):
    """80 simulated seconds over 8 000 segments: the index passes 10 000
    groups with most of them a cooldown old, so the prune must bite."""
    assert _drive_both_histories(repair_home, seed=1, n_segments=8000,
                                 n_hosts=3, max_step=0.01)
