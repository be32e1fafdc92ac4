"""Client location cache + vectored I/O: units, equivalence, staleness."""

import pytest

from repro.cluster import small_cluster
from repro.core import SorrentoConfig, SorrentoDeployment
from repro.core.layout import DEFAULT_STRIPE_UNIT
from repro.core.location import ClientLocationCache, TtlCache
from repro.core.params import SorrentoParams
from repro.faults import FaultPlan, NodeCrash, inject
from repro.network.message import RpcRemoteError

MB = 1 << 20
KB = 1 << 10


def deploy(n_storage=4, seed=7, **over):
    dep = SorrentoDeployment(
        small_cluster(n_storage, n_compute=2, capacity_per_node=8 << 30),
        SorrentoConfig(params=SorrentoParams(**over), seed=seed),
    )
    dep.warm_up()
    return dep


# ------------------------------------------------------------- TtlCache
def test_ttl_cache_expires_lazily():
    c = TtlCache(ttl=10.0, capacity=4)
    c.put("a", 1, now=0.0)
    assert c.get("a", now=9.9) == 1
    assert c.get("a", now=10.0) is None
    assert c.get("a", now=0.0) is None  # expiry deletes the entry


def test_ttl_cache_capacity_drops_oldest():
    c = TtlCache(ttl=100.0, capacity=2)
    c.put("a", 1, now=0.0)
    c.put("b", 2, now=1.0)
    c.put("a", 10, now=2.0)  # re-insert refreshes a's position
    c.put("c", 3, now=3.0)   # overflow drops b (oldest insertion)
    assert c.get("b", now=4.0) is None
    assert c.get("a", now=4.0) == 10
    assert c.get("c", now=4.0) == 3


def test_ttl_cache_disabled_by_zero_ttl_or_capacity():
    for cache in (TtlCache(ttl=0.0, capacity=4), TtlCache(ttl=5.0, capacity=0)):
        cache.put("a", 1, now=0.0)
        assert cache.get("a", now=0.1) is None


def test_ttl_cache_evict_and_clear():
    c = TtlCache(ttl=10.0, capacity=4)
    c.put("a", 1, now=0.0)
    assert c.evict("a") is True
    assert c.evict("a") is False
    c.put("b", 2, now=0.0)
    c.clear()
    assert c.get("b", now=0.1) is None


# -------------------------------------------------- ClientLocationCache
def test_location_cache_learn_keeps_max_version_per_owner():
    c = ClientLocationCache(ttl=60.0, capacity=16)
    c.learn(1, "s00", 3, now=0.0)
    c.learn(1, "s00", 2, now=1.0)   # older claim must not regress
    c.learn(1, "s01", 5, now=2.0)
    owners = c.lookup(1, now=3.0)
    assert owners == [("s01", 5), ("s00", 3)]  # sorted newest-first


def test_location_cache_evict_owner_drops_all_claims():
    c = ClientLocationCache(ttl=60.0, capacity=16)
    c.store(1, [("s00", 2), ("s01", 2)], now=0.0)
    c.store(2, [("s00", 1)], now=0.0)
    assert c.evict_owner("s00") == 2
    assert c.lookup(1, now=0.1) == [("s01", 2)]
    assert c.lookup(2, now=0.1) is None  # entry emptied -> deleted


def test_location_cache_hint_folding():
    c = ClientLocationCache(ttl=60.0, capacity=16)
    c.learn_hint(7, [("s02", 4), ("s03", 3)], now=0.0)
    owners = c.lookup(7, now=1.0)
    assert owners == [("s02", 4), ("s03", 3)]


# ----------------------------------------------------------- _pick_owner
def test_pick_owner_takes_max_version_from_unsorted_list():
    dep = deploy()
    client = dep.client_on("c00")
    # Probe results and cache merges need not be sorted newest-first.
    owner, version = client._pick_owner([("s00", 1), ("s02", 3), ("s01", 2)])
    assert (owner, version) == ("s02", 3)
    with pytest.raises(Exception):
        client._pick_owner([])


# ------------------------------------------------- vectored equivalence
def _striped_roundtrip():
    dep = deploy()
    client = dep.client_on("c00")
    data = bytes(i % 251 for i in range(512 * KB))

    def scenario():
        fh = yield from client.open(
            "/vec", "w", create=True, organization="striped",
            stripe_count=8, fixed_size=len(data))
        yield from client.write(fh, 0, len(data), data=data)
        yield from client.close(fh)
        fh = yield from client.open("/vec", "r")
        got = yield from client.read(fh, 0, len(data))
        yield from client.close(fh)
        return got

    got = dep.run(scenario())
    rpcs = sum(
        (dep.metrics.get("client", svc).calls
         if dep.metrics.get("client", svc) else 0)
        for svc in ("loc_lookup", "seg_read", "seg_write"))
    return data, got, rpcs, client


def test_vectored_roundtrip_matches_scalar_bytes():
    data, vec_bytes, vec_rpcs, vec_client = _striped_roundtrip()
    assert vec_bytes == data
    assert vec_client.stats["vec_rpcs"] > 0
    assert vec_client.stats["vec_pieces"] > vec_client.stats["vec_rpcs"]
    # The headline: 8 stripes written and read back in 8 data-path RPCs
    # (lookups included), where one RPC per piece plus a lookup per
    # segment (the scalar, uncached client PR 4 replaced) took 25.
    assert vec_rpcs <= 8


def test_vector_partial_failure_falls_back_per_piece():
    """A piece the owner cannot serve degrades to the single-piece retry
    path instead of failing the whole vector."""
    dep = deploy()
    client = dep.client_on("c00")
    data = bytes(i % 241 for i in range(256 * KB))

    def write():
        fh = yield from client.open(
            "/part", "w", create=True, organization="striped",
            stripe_count=4, fixed_size=len(data))
        yield from client.write(fh, 0, len(data), data=data)
        yield from client.close(fh)
        return fh

    fh = dep.run(write())
    # Poison the cache: claim every data segment lives on one host at a
    # bogus version, forcing per-piece "version missing" errors.
    segs = [ref.segid for ref in fh.layout.segments]
    holders = {
        h for h, p in dep.providers.items()
        if any(p.store.latest_committed(s) is not None for s in segs)
    }
    bogus = sorted(holders)[0]
    for segid in segs:
        client.loc_cache.store(segid, [(bogus, 99)], dep.sim.now)

    def read():
        rfh = yield from client.open("/part", "r")
        got = yield from client.read(rfh, 0, len(data))
        yield from client.close(rfh)
        return got

    got = dep.run(read())
    assert got == data


def test_batched_read_costs_what_its_pieces_cost_alone():
    """One accounting rule for the one data RPC: an 8-stripe read batched
    per owner puts the same reply bytes on the wire as the same eight
    pieces read one call at a time."""
    dep = deploy()
    client = dep.client_on("c00")
    unit = DEFAULT_STRIPE_UNIT
    data = bytes(i % 251 for i in range(8 * unit))

    def write():
        fh = yield from client.open(
            "/acct", "w", create=True, organization="striped",
            stripe_count=8, fixed_size=len(data))
        yield from client.write(fh, 0, len(data), data=data)
        yield from client.close(fh)

    def read(ranges):
        fh = yield from client.open("/acct", "r")
        got = []
        for off, n in ranges:
            got.append((yield from client.read(fh, off, n)))
        yield from client.close(fh)
        return b"".join(got)

    def reply_bytes(ranges):
        cell = dep.metrics.get("server", "seg_read")
        before = (cell.calls, cell.bytes_in) if cell else (0, 0)
        assert dep.run(read(ranges)) == data
        cell = dep.metrics.get("server", "seg_read")
        return cell.calls - before[0], cell.bytes_in - before[1]

    dep.run(write())
    reply_bytes([(0, len(data))])          # warm the location cache
    vec_before = client.stats["vec_rpcs"]
    batched_calls, batched = reply_bytes([(0, len(data))])
    assert client.stats["vec_rpcs"] > vec_before
    single_calls, single = reply_bytes(
        [(i * unit, unit) for i in range(8)])
    assert batched_calls < single_calls == 8
    assert batched == single


def test_failed_write_piece_is_resent_alone_and_raises():
    """A piece the owner cannot store fails on its own: it is re-sent in
    a one-piece call, whose failure raises the provider's error, while
    the batch's other pieces are stored."""
    dep = deploy(n_storage=2)
    client = dep.client_on("c00")
    unit = DEFAULT_STRIPE_UNIT
    first = bytes(i % 241 for i in range(4 * unit))
    second = bytes(i % 239 for i in range(4 * unit))

    def begin():
        fh = yield from client.open(
            "/wpart", "w", create=True, organization="striped",
            stripe_count=4, fixed_size=len(first))
        yield from client.write(fh, 0, len(first), data=first)
        return fh

    fh = dep.run(begin())
    by_owner = {}
    for ref in fh.layout.segments:
        # Never committed: each stripe is a v1 shadow on its creator.
        by_owner.setdefault(fh.new_segments[ref.segid], []).append(
            (ref.segid, 1))
    owner, segs = max(by_owner.items(), key=lambda kv: len(kv[1]))
    assert len(segs) >= 2, "no owner holds two stripes"
    lost, kept = segs[0], segs[1:]
    store = dep.providers[owner].store
    dep.run(store.drop(*lost))

    calls = dep.metrics.get("client", "seg_write").calls
    with pytest.raises(RpcRemoteError) as err:
        dep.run(client.write(fh, 0, len(second), data=second))
    assert err.value.dst == owner and err.value.service == "seg_write"
    assert f"{lost[0]:#x}" in err.value.error
    # One call per owner, plus the lone re-send of the failed piece.
    assert dep.metrics.get("client", "seg_write").calls == (
        calls + len(by_owner) + 1)
    for segid, version in kept:
        idx = [r.segid for r in fh.layout.segments].index(segid)
        got = dep.run(store.read(segid, version, 0, unit))
        assert got == second[idx * unit:(idx + 1) * unit]


# ----------------------------------------------------- fault staleness
def test_cached_owner_crash_falls_back_and_evicts():
    """Crash the owner a client's cache still points at: the read must
    fall back (re-locate through the home host, which names the other
    replica), return correct data, and scrub the dead claim from the
    cache."""
    dep = deploy(n_storage=4, default_degree=2)
    client = dep.client_on("c00")
    data = bytes(i % 239 for i in range(128 * KB))

    def write():
        fh = yield from client.open("/stale", "w", create=True, degree=2)
        yield from client.write(fh, 0, len(data), data=data)
        yield from client.close(fh)
        return fh

    fh = dep.run(write())
    segid = fh.layout.segments[0].segid
    # Let lazy replication produce the second copy.
    dep.sim.run(until=dep.sim.now + 40.0)
    holders = sorted(
        h for h, p in dep.providers.items()
        if p.store.latest_committed(segid) is not None)
    assert len(holders) >= 2, "replication never produced a second copy"
    victim = holders[0]
    version = fh.layout.segments[0].version
    client.loc_cache.store(segid, [(victim, version)], dep.sim.now)

    inject(dep, FaultPlan().at(0.5, NodeCrash(victim)))
    dep.sim.run(until=dep.sim.now + 1.0)
    lookups = dep.metrics.stats("client", "loc_lookup")
    before = (lookups.calls, client.stats["loc_stale"],
              client.stats["probe_fallbacks"])

    def read():
        rfh = yield from client.open("/stale", "r")
        got = yield from client.read(rfh, 0, len(data))
        yield from client.close(rfh)
        return got

    got = dep.run(read())
    assert got == data
    # The index meta is cached, so the only loc_lookup is the fallback's
    # re-locate; the home named a live replica, so no probe went out.
    assert lookups.calls > before[0]
    assert client.stats["loc_stale"] > before[1]
    assert client.stats["probe_fallbacks"] == before[2]
    cached = client.loc_cache.lookup(segid, dep.sim.now)
    assert not cached or all(h != victim for h, _v in cached)


def test_a_read_after_a_migration_to_the_readers_host_finds_it_at_home():
    """The reader's cache names S; S migrates the segment to the reader's
    own host R.  The probe multicast skips its sender, so only the home
    host can name R: the next read must succeed promptly and leave R as
    the only cached owner."""
    dep = deploy(n_storage=4)
    writer = dep.client_on("c00")
    data = bytes(i % 251 for i in range(128 * KB))

    def write():
        fh = yield from writer.open("/moved", "w", create=True)
        yield from writer.write(fh, 0, len(data), data=data)
        yield from writer.close(fh)
        return fh

    segid = dep.run(write()).layout.segments[0].segid
    dep.sim.run(until=dep.sim.now + 2.0)
    (source,) = [h for h, p in dep.providers.items()
                 if p.store.latest_committed(segid) is not None]
    target = next(h for h in sorted(dep.providers) if h != source)
    reader = dep.client_on(target)

    def read_all(fh):
        got = yield from reader.read(fh, 0, len(data))
        return got

    rfh = dep.run(reader.open("/moved", "r"))
    assert dep.run(read_all(rfh)) == data
    assert [h for h, _v in reader.loc_cache.lookup(segid, dep.sim.now)] \
        == [source]

    provider = dep.providers[source]
    assert dep.run(provider.migrator.migrate_out(
        provider.store.latest_committed(segid), target)) is True

    t0 = dep.sim.now
    assert dep.run(read_all(rfh)) == data
    assert dep.sim.now - t0 < 1.0
    assert [h for h, _v in reader.loc_cache.lookup(segid, dep.sim.now)] \
        == [target]


def test_membership_death_evicts_cached_claims():
    """The membership hook scrubs every claim by a dead node, counted as
    stale evictions."""
    dep = deploy(n_storage=4)
    client = dep.client_on("c00")
    victim = sorted(dep.providers)[0]
    client.loc_cache.store(101, [(victim, 1)], dep.sim.now)
    client.loc_cache.store(102, [(victim, 1), ("zzz", 1)], dep.sim.now)
    before = client.stats["loc_stale"]

    inject(dep, FaultPlan().at(0.5, NodeCrash(victim)))
    # Death detection: 5 missed 1 s heartbeats, plus margin.
    dep.sim.run(until=dep.sim.now + 10.0)

    assert client.loc_cache.lookup(101, dep.sim.now) is None
    assert client.loc_cache.lookup(102, dep.sim.now) == [("zzz", 1)]
    assert client.stats["loc_stale"] >= before + 2
