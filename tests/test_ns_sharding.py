"""Tests for the namespace behind the routed metadata API — the one
path every deployment takes, with one shard by default.

Covers the shard map, the error surface, the deployment-level routing
at one and two shards (the client resolves what the servers resolve,
and a shard refuses a path it does not own), a shard(1) == shard(N)
equivalence property, and standby failover for a crashed shard on the
fault plane.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import small_cluster
from repro.core import SorrentoConfig, SorrentoDeployment
from repro.core.client import (
    CommitConflict,
    ConflictError,
    NotFoundError,
    SorrentoError,
)
from repro.core.client.router import _namespace_error
from repro.core.namespace import (
    NamespaceError,
    NamespaceServer,
    NamespaceShardMap,
    shard_prefix,
)
from repro.core.params import SorrentoParams
from repro.experiments import ns_shard_curve
from repro.faults import FaultController, FaultPlan, NodeCrash

MB = 1 << 20


def deploy(n_shards=2, seed=17, n_storage=4, standbys=None):
    spec = small_cluster(n_storage, n_compute=3, capacity_per_node=8 << 30)
    dep = SorrentoDeployment(
        spec,
        SorrentoConfig(params=SorrentoParams(), seed=seed,
                       namespace_shards=n_shards,
                       ns_shard_standbys_on=standbys),
    )
    dep.warm_up()
    return dep


# ------------------------------------------------------------- shard map
def test_shard_map_is_deterministic_and_spreads():
    m1 = NamespaceShardMap(["s00", "s01", "s02"])
    m2 = NamespaceShardMap(["s02", "s00", "s01"])  # order-insensitive
    paths = [f"/dir{i}/file" for i in range(64)]
    owners = [m1.owner_of(p) for p in paths]
    assert owners == [m2.owner_of(p) for p in paths]
    # Whole top-level subtrees stay together...
    assert m1.owner_of("/dir3/a/b/c") == m1.owner_of("/dir3")
    # ...and the hash spreads them over every shard.
    assert {"s00", "s01", "s02"} == set(owners)


def test_shard_prefix():
    assert shard_prefix("/") == "/"
    assert shard_prefix("/a") == "a"
    assert shard_prefix("/a/b/c") == "a"


# ------------------------------------------------------- error surface
def test_only_the_code_token_classifies_a_namespace_error():
    # Only the code token after "NamespaceError: " classifies: a path
    # that spells another code is still just a path.
    assert type(_namespace_error(
        "NamespaceError: EEXIST /ENOENT")) is ConflictError
    assert type(_namespace_error(
        "NamespaceError: ENOENT /EWRONGSHARD/x")) is NotFoundError
    assert type(_namespace_error(
        "NamespaceError: no commit grant for /EEXIST")) is SorrentoError
    # A shard's refusal of a path it does not own is no condition an
    # application branches on.
    assert type(_namespace_error(
        "NamespaceError: EWRONGSHARD /ENOENT owner=s01")) is SorrentoError


# ------------------------------------------------------ deployment routing
def test_default_deployment_is_one_shard_on_the_routed_path():
    spec = small_cluster(4, n_compute=1, capacity_per_node=8 << 30)
    dep = SorrentoDeployment(spec)
    assert dep.ns_shard_map.shards == [dep.ns_host]
    assert dep.namespace_servers() == [dep.ns]
    assert dep.namespace_for("/any/path") is dep.ns
    assert dep.client_on("c00").router.shards == {dep.ns_host: [dep.ns_host]}


def test_determinism_scenario_stays_on_its_one_shard(monkeypatch):
    """The tests/test_determinism.py scenario (writes, an unlink, a
    provider crash, a minute of repair) on the default deployment: one
    shard, and no EWRONGSHARD reply from the namespace server."""
    from tests import test_determinism as scenario

    built = []

    class Recorded(SorrentoDeployment):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    refused = []
    check_owner = NamespaceServer._check_owner

    def recording_check(self, path):
        try:
            check_owner(self, path)
        except NamespaceError:
            refused.append(path)
            raise

    monkeypatch.setattr(scenario, "SorrentoDeployment", Recorded)
    monkeypatch.setattr(NamespaceServer, "_check_owner", recording_check)
    scenario.run_scenario(5)
    (dep,) = built
    assert dep.ns_shard_map.shards == [dep.ns_host]
    assert dep.ns.ops_served > 0
    assert refused == []


@pytest.mark.parametrize("n_shards", [1, 2])
def test_deployment_routes_and_merges_root_listing(n_shards):
    dep = deploy(n_shards=n_shards)
    client = dep.client_on("c00")

    def work():
        for name in ("alpha", "beta", "gamma", "delta", "epsilon"):
            yield from client.mkdir(f"/{name}")
            fh = yield from client.open(f"/{name}/f", "w", create=True)
            yield from client.close(fh)
        listing = yield from client.listdir("/")
        entry = yield from client.stat("/alpha/f")
        return listing, entry

    listing, entry = dep.run(work())
    assert listing == ["alpha/", "beta/", "delta/", "epsilon/", "gamma/"]
    assert entry["path"] == "/alpha/f"
    counts = [sum(1 for k, _ in srv.db.items(low="f:", high="f;"))
              for srv in dep.namespace_servers()]
    assert len(counts) == n_shards
    assert sum(counts) == 5
    assert all(c > 0 for c in counts), counts


@pytest.mark.parametrize("n_shards", [1, 2])
def test_full_file_lifecycle(n_shards):
    dep = deploy(n_shards=n_shards)
    client = dep.client_on("c00")

    def work():
        yield from client.mkdir("/p")
        fh = yield from client.open("/p/file", "w", create=True)
        yield from client.write(fh, 0, 1 * MB)
        v = yield from client.close(fh)
        assert v == 1
        rfh = yield from client.open("/p/file", "r")
        yield from client.read(rfh, 0, 64 * 1024)
        yield from client.close(rfh)
        yield from client.unlink("/p/file")
        with pytest.raises(SorrentoError):
            yield from client.open("/p/file", "r")

    dep.run(work())


@pytest.mark.parametrize("n_shards", [1, 2])
def test_commit_arbitration_stays_with_the_owning_shard(n_shards):
    """Conflicts are still detected: both writers reach the same server."""
    dep = deploy(n_shards=n_shards)
    a, b = dep.client_on("c00"), dep.client_on("c01")

    def scenario():
        fh = yield from a.open("/racef", "w", create=True)
        yield from a.write(fh, 0, 128)
        yield from a.close(fh)
        fa = yield from a.open("/racef", "w")
        fb = yield from b.open("/racef", "w")
        yield from a.write(fa, 0, 128)
        yield from a.close(fa)
        try:
            yield from b.write(fb, 0, 128)
            yield from b.close(fb)
        except CommitConflict:
            return "conflict"
        return "none"

    assert dep.run(scenario()) == "conflict"


@pytest.mark.parametrize("n_shards", [1, 2])
def test_shards_split_the_namespace_load(n_shards):
    """Sharding splits the op stream (and its WAL/disk load) roughly
    evenly across the servers.  (Throughput only improves once a single
    server saturates — which, as the paper notes, takes far more clients
    than these tests run; the scaling property to check here is the
    load split.)"""
    from repro.experiments.common import run_until_done

    dep = deploy(n_shards=n_shards, seed=123)

    def hammer(c, tag):
        for i in range(60):
            yield from c.mkdir(f"/{tag}x{i}")

    procs = [dep.sim.process(hammer(dep.client_on(f"c0{j}"), f"t{j}"))
             for j in range(2)]
    run_until_done(dep.sim, procs)
    served = [srv.ops_served for srv in dep.namespace_servers()]
    assert len(served) == n_shards
    assert sum(served) >= 120
    assert min(served) > 0.25 * sum(served), served


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5),
       st.lists(st.text("ab/.-", max_size=10).map(lambda s: "/" + s),
                min_size=1, max_size=8))
def test_the_client_resolves_what_the_servers_resolve(n_shards, paths):
    dep = SorrentoDeployment(
        small_cluster(5, n_compute=1, capacity_per_node=8 << 30),
        SorrentoConfig(namespace_shards=n_shards))
    client = dep.client_on("c00")
    for path in paths:
        assert client.router.route_host(path) \
            == dep.namespace_for(path).node.hostid


def test_a_misrouted_request_is_refused_not_served():
    """A shard asked about a path it does not own refuses, even where it
    could serve: every shard holds "/", the parent of a top-level file."""
    dep = deploy(n_shards=2)
    client = dep.client_on("c00")
    wrong = dep.ns_host
    path = next(f"/m{i}" for i in range(40)
                if dep.ns_shard_map.owner_of(f"/m{i}") != wrong)
    req = {"path": path, "fileid": 7}

    def misrouted():
        try:
            yield from client.router.call("ns_create", req, size=160,
                                          shard=wrong)
        except SorrentoError as exc:
            return exc
        return None

    err = dep.run(misrouted())
    assert type(err) is SorrentoError and "EWRONGSHARD" in str(err)
    assert all(srv.db.get(f"f:{path}") is None
               for srv in dep.namespace_servers())


# ------------------------------------------------- shard(1) == shard(N)
@settings(max_examples=8, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from("abcde"), st.sampled_from("xyz")),
    min_size=1, max_size=10, unique=True))
def test_sharding_preserves_the_directory_tree(pairs):
    """The same op sequence against 1 and 3 shards yields identical
    listings and stats: sharding changes placement, never semantics."""

    def drive(n_shards):
        dep = deploy(n_shards=n_shards, seed=5)
        client = dep.client_on("c00")

        def work():
            made = set()
            for d, f in pairs:
                if d not in made:
                    yield from client.mkdir(f"/{d}")
                    made.add(d)
                yield from client.create(f"/{d}/{f}")
            root = yield from client.listdir("/")
            out = {"/": root}
            for d in sorted(made):
                out[d] = yield from client.listdir(f"/{d}")
                for name in out[d]:
                    entry = yield from client.stat(f"/{d}/{name}")
                    out[f"/{d}/{name}"] = (entry["version"], entry["degree"])
            return out

        return dep.run(work())

    assert drive(1) == drive(3)


# ------------------------------------------------------- fault plane
def test_shard_crash_fails_over_to_standby():
    # Two shards on s00/s01, per-shard hot standbys on the spare
    # storage nodes s04/s05.
    dep = deploy(n_shards=2, n_storage=6, standbys=["s04", "s05"])
    client = dep.client_on("c00")
    victim = dep.provider_names[0]
    # A top-level dir owned by the victim shard.
    target = next(f"/v{i}" for i in range(40)
                  if dep.ns_shard_map.owner_of(f"/v{i}") == victim)

    def setup():
        yield from client.mkdir(target)
        for i in range(4):
            yield from client.create(f"{target}/f{i}")

    dep.run(setup())
    dep.sim.run(until=dep.sim.now + 2)  # WAL shipping drains

    completions = []

    def hammer():
        i = 0
        while dep.sim.now < t_end:
            try:
                yield from client.stat(f"{target}/f{i % 4}")
                completions.append(dep.sim.now)
            except Exception:
                pass
            i += 1
            yield dep.sim.timeout(0.25)

    t0 = dep.sim.now
    t_end = t0 + 40.0
    controller = FaultController(
        dep, FaultPlan().at(10.0, NodeCrash(victim)))
    controller.start()
    dep.sim.process(hammer())
    dep.sim.run(until=t_end)

    fail_t = t0 + 10.0
    before = [t for t in completions if t < fail_t]
    outage = [t for t in completions if fail_t <= t < fail_t + 20.0]
    after = [t for t in completions if t >= fail_t + 20.0]
    assert before, "no completions before the crash"
    assert after, "shard never recovered: no completions via the standby"
    # Failover happened: the standby server answered real lookups.
    standby = dep.ns_shard_standby_servers[victim]
    assert standby.ops_served > 0
    # Recovery gap is bounded by the RPC deadline, not the test length.
    gap = min(after) - (max(outage) if outage else fail_t)
    assert gap < 15.0, f"failover took {gap:.1f}s"
    # The healthy shard kept serving throughout (client kept making
    # progress during the outage window only if target dirs spread; the
    # victim-owned dir itself must pause at most one deadline).
    assert len(after) >= 10


# ------------------------------------------------- the shard-curve experiment
def test_shard_curve_point_completes_without_failures():
    row = ns_shard_curve.run_point(2, 8, duration=2.0)
    assert row["ops"] > 0 and row["md_ops_per_s"] > 0
    # A failure here would be a client asking a shard that refuses it.
    assert row["failed"] == 0


def test_shard_curve_checks_flag_both_shape_claims():
    def curve(cells):
        return {key: {"md_ops_per_s": v} for key, v in cells.items()}

    recorded = curve({(1, 32): 3920.0, (2, 32): 3963.0,
                      (1, 64): 4651.0, (2, 64): 7813.0})
    assert ns_shard_curve.checks(recorded) == []
    slower = curve({(1, 64): 4651.0, (2, 64): 4100.0})
    assert any("1.6x" in p for p in ns_shard_curve.checks(slower))
    apart = curve({(1, 8): 996.0, (2, 8): 500.0})
    assert any("coincide" in p for p in ns_shard_curve.checks(apart))
