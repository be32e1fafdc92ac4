"""Tests for the namespace server: tree ops, commits, leases, recovery."""

import pytest

from repro.cluster import Node, small_cluster
from repro.core.namespace import NamespaceServer
from repro.core.params import SorrentoParams
from repro.network import Fabric, RpcRemoteError
from repro.sim import Simulator


def build(commit_ttl=5.0):
    sim = Simulator()
    fabric = Fabric(sim)
    spec = small_cluster(1, n_compute=2)
    nodes = {s.name: Node(sim, fabric, s) for s in spec.nodes}
    params = SorrentoParams(commit_grant_ttl=commit_ttl)
    ns = NamespaceServer(nodes["s00"], "vol0", params)
    return sim, nodes, ns


def call(sim, node, service, payload):
    def gen():
        result = yield from node.runtime.call("s00", service, payload)
        return result

    return sim.run_process(sim.process(gen()))


def test_create_and_lookup():
    sim, nodes, ns = build()
    c = nodes["c00"]
    entry = call(sim, c, "ns_create", {"path": "/a", "fileid": 42})
    assert entry["fileid"] == 42
    assert entry["version"] == 0
    got = call(sim, c, "ns_lookup", "/a")
    assert got["fileid"] == 42


def test_lookup_missing_raises():
    sim, nodes, ns = build()
    with pytest.raises(RpcRemoteError, match="ENOENT"):
        call(sim, nodes["c00"], "ns_lookup", "/ghost")


def test_duplicate_create_rejected():
    sim, nodes, ns = build()
    call(sim, nodes["c00"], "ns_create", {"path": "/a", "fileid": 1})
    with pytest.raises(RpcRemoteError, match="EEXIST"):
        call(sim, nodes["c00"], "ns_create", {"path": "/a", "fileid": 2})


def test_create_in_missing_dir_rejected():
    sim, nodes, ns = build()
    with pytest.raises(RpcRemoteError, match="ENOENT"):
        call(sim, nodes["c00"], "ns_create", {"path": "/no/file", "fileid": 1})


def test_mkdir_list_rmdir():
    sim, nodes, ns = build()
    c = nodes["c00"]
    call(sim, c, "ns_mkdir", "/d")
    call(sim, c, "ns_create", {"path": "/d/f1", "fileid": 1})
    call(sim, c, "ns_mkdir", "/d/sub")
    assert call(sim, c, "ns_list", "/d") == ["f1", "sub/"]
    with pytest.raises(RpcRemoteError, match="ENOTEMPTY"):
        call(sim, c, "ns_rmdir", "/d")
    call(sim, c, "ns_rmdir", "/d/sub")
    call(sim, c, "ns_unlink", "/d/f1")
    assert call(sim, c, "ns_rmdir", "/d") is True


def test_listing_does_not_descend():
    sim, nodes, ns = build()
    c = nodes["c00"]
    call(sim, c, "ns_mkdir", "/d")
    call(sim, c, "ns_mkdir", "/d/sub")
    call(sim, c, "ns_create", {"path": "/d/sub/deep", "fileid": 1})
    assert call(sim, c, "ns_list", "/d") == ["sub/"]


def test_commit_protocol_happy_path():
    sim, nodes, ns = build()
    c = nodes["c00"]
    call(sim, c, "ns_create", {"path": "/f", "fileid": 7})
    resp = call(sim, c, "ns_begin_commit", {"path": "/f", "base_version": 0})
    assert resp["status"] == "ok"
    entry = call(sim, c, "ns_complete_commit", {"path": "/f", "new_version": 1})
    assert entry["version"] == 1


def test_commit_conflict_on_stale_base():
    sim, nodes, ns = build()
    c = nodes["c00"]
    call(sim, c, "ns_create", {"path": "/f", "fileid": 7})
    call(sim, c, "ns_begin_commit", {"path": "/f", "base_version": 0})
    call(sim, c, "ns_complete_commit", {"path": "/f", "new_version": 1})
    resp = call(sim, c, "ns_begin_commit", {"path": "/f", "base_version": 0})
    assert resp["status"] == "conflict"
    assert resp["current"] == 1


def test_commit_busy_while_other_holds_grant():
    sim, nodes, ns = build()
    a, b = nodes["c00"], nodes["c01"]
    call(sim, a, "ns_create", {"path": "/f", "fileid": 7})
    assert call(sim, a, "ns_begin_commit",
                {"path": "/f", "base_version": 0})["status"] == "ok"
    assert call(sim, b, "ns_begin_commit",
                {"path": "/f", "base_version": 0})["status"] == "busy"


def test_commit_grant_expires():
    sim, nodes, ns = build(commit_ttl=2.0)
    a, b = nodes["c00"], nodes["c01"]
    call(sim, a, "ns_create", {"path": "/f", "fileid": 7})
    call(sim, a, "ns_begin_commit", {"path": "/f", "base_version": 0})
    sim.run(until=sim.now + 3.0)
    assert call(sim, b, "ns_begin_commit",
                {"path": "/f", "base_version": 0})["status"] == "ok"


def test_complete_commit_requires_grant():
    sim, nodes, ns = build()
    a, b = nodes["c00"], nodes["c01"]
    call(sim, a, "ns_create", {"path": "/f", "fileid": 7})
    call(sim, a, "ns_begin_commit", {"path": "/f", "base_version": 0})
    with pytest.raises(RpcRemoteError, match="no commit grant"):
        call(sim, b, "ns_complete_commit", {"path": "/f", "new_version": 1})


def test_commit_must_advance_by_one():
    sim, nodes, ns = build()
    a = nodes["c00"]
    call(sim, a, "ns_create", {"path": "/f", "fileid": 7})
    call(sim, a, "ns_begin_commit", {"path": "/f", "base_version": 0})
    with pytest.raises(RpcRemoteError, match="advance version by one"):
        call(sim, a, "ns_complete_commit", {"path": "/f", "new_version": 5})


def test_abort_commit_releases_grant():
    sim, nodes, ns = build()
    a, b = nodes["c00"], nodes["c01"]
    call(sim, a, "ns_create", {"path": "/f", "fileid": 7})
    call(sim, a, "ns_begin_commit", {"path": "/f", "base_version": 0})
    call(sim, a, "ns_abort_commit", {"path": "/f"})
    assert call(sim, b, "ns_begin_commit",
                {"path": "/f", "base_version": 0})["status"] == "ok"


def test_lease_blocks_other_committers():
    sim, nodes, ns = build()
    a, b = nodes["c00"], nodes["c01"]
    call(sim, a, "ns_create", {"path": "/f", "fileid": 7})
    assert call(sim, a, "ns_acquire_lease",
                {"path": "/f", "duration": 30.0})["status"] == "ok"
    resp = call(sim, b, "ns_begin_commit", {"path": "/f", "base_version": 0})
    assert resp["status"] == "lease_held"
    # Lease holder itself can commit.
    assert call(sim, a, "ns_begin_commit",
                {"path": "/f", "base_version": 0})["status"] == "ok"


def test_lease_release_and_reacquire():
    sim, nodes, ns = build()
    a, b = nodes["c00"], nodes["c01"]
    call(sim, a, "ns_create", {"path": "/f", "fileid": 7})
    call(sim, a, "ns_acquire_lease", {"path": "/f", "duration": 30.0})
    assert call(sim, b, "ns_acquire_lease",
                {"path": "/f", "duration": 30.0})["status"] == "held"
    call(sim, a, "ns_release_lease", {"path": "/f"})
    assert call(sim, b, "ns_acquire_lease",
                {"path": "/f", "duration": 30.0})["status"] == "ok"


def test_update_entry_policy_fields():
    sim, nodes, ns = build()
    a = nodes["c00"]
    call(sim, a, "ns_create", {"path": "/f", "fileid": 7})
    entry = call(sim, a, "ns_update_entry",
                 {"path": "/f", "degree": 3, "alpha": 0.8})
    assert entry["degree"] == 3
    assert entry["alpha"] == 0.8


def test_crash_recovery_preserves_tree():
    sim, nodes, ns = build()
    a = nodes["c00"]
    call(sim, a, "ns_mkdir", "/d")
    call(sim, a, "ns_create", {"path": "/d/f", "fileid": 9})
    call(sim, a, "ns_begin_commit", {"path": "/d/f", "base_version": 0})
    call(sim, a, "ns_complete_commit", {"path": "/d/f", "new_version": 1})
    ns.node.crash()
    ns.node.restart()           # the tree is rebuilt from checkpoint + WAL
    entry = call(sim, a, "ns_lookup", "/d/f")
    assert entry["version"] == 1
    assert entry["fileid"] == 9


def test_throughput_is_bounded_by_cpu():
    """The paper: one namespace server handles ~1300 ops/second."""
    sim, nodes, ns = build()
    a = nodes["c00"]

    def hammer(n):
        for i in range(n):
            yield from a.runtime.call("s00", "ns_lookup", "/missing" if False else "/", size=64)

    # Use mkdir ops (mutations) on distinct paths for a realistic mix.
    def workload():
        for i in range(200):
            yield from a.runtime.call("s00", "ns_mkdir", f"/d{i}", size=64)

    t0 = sim.now
    sim.run_process(sim.process(workload()))
    elapsed = sim.now - t0
    rate = 200 / elapsed
    # Single-client serial rate is latency-bound; just sanity-check scale.
    assert 10 < rate < 5000
