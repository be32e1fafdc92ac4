"""Tests for cluster specs and the Node model."""

import pytest

from repro.cluster import CLUSTER_A, CLUSTER_B, Node, small_cluster
from repro.network import Fabric
from repro.runtime import Tracer
from repro.sim import Simulator, gather

GB = 1 << 30


def test_cluster_a_matches_figure8():
    assert len(CLUSTER_A.nodes) == 30
    assert len(CLUSTER_A.storage_nodes) == 10
    # 10 exported disks: 2 Cheetah + 8 Barracuda.
    disks = [n.disks[0] for n in CLUSTER_A.storage_nodes]
    assert disks.count("cheetah-st373405") == 2
    assert disks.count("barracuda-st336737") == 8
    assert CLUSTER_A.total_capacity == 210 * GB


def test_cluster_b_matches_figure8():
    assert len(CLUSTER_B.nodes) == 46
    assert len(CLUSTER_B.storage_nodes) == 38
    # Every exporting node: RAID-0 of three partitions.
    assert all(len(n.disks) == 3 for n in CLUSTER_B.storage_nodes)
    # Total ~6.55 TB.
    assert CLUSTER_B.total_capacity == pytest.approx(6.55 * (1 << 40), rel=0.01)
    # CPU mix: 8 + 30 duals, 4 + 4 quads.
    assert sum(1 for n in CLUSTER_B.nodes if n.cpus == 4) == 8


def test_small_cluster_shape():
    spec = small_cluster(4, n_compute=3)
    assert len(spec.storage_nodes) == 4
    assert len(spec.compute_nodes) == 3


def build_node(spec_index=0, cluster=None):
    sim = Simulator()
    fabric = Fabric(sim)
    cluster = cluster or small_cluster(2)
    node = Node(sim, fabric, cluster.nodes[spec_index])
    return sim, node


def test_node_has_fs_iff_exports():
    sim, storage_node = build_node(0)
    assert storage_node.fs is not None
    sim2, compute_node = build_node(2)
    assert compute_node.fs is None
    assert compute_node.storage_utilization == 0.0


def test_cpu_work_takes_time():
    sim, node = build_node()
    rate = node.spec.cpus * node.spec.cpu_ghz

    def proc():
        yield node.cpu(2.8)  # 2.8 reference-GHz-seconds
        return sim.now

    t = sim.run_process(sim.process(proc()))
    assert t == pytest.approx(2.8 / rate)


def test_load_monitor_tracks_cpu():
    sim, node = build_node()

    def burn():
        for _ in range(20):
            yield node.cpu(node.cpu_pipe.rate * 1.0)  # 1s of full load

    sim.process(burn())
    sim.run(until=10)
    assert node.cpu_util > 0.5
    assert node.load > 0.5


def test_load_monitor_tracks_io_wait():
    sim, node = build_node()

    def hammer():
        for _ in range(200):
            yield node.fs.device.io(1 << 20)

    def setup():
        yield from node.fs.create("f")
        yield from node.fs.write("f", 0, 1024)

    sim.run_process(sim.process(setup()))
    sim.process(hammer())
    sim.run(until=5)
    assert node.io_wait > 0.3


def test_idle_node_load_decays():
    sim, node = build_node()

    def burst():
        yield node.cpu(node.cpu_pipe.rate * 2.0)

    sim.process(burst())
    sim.run(until=3)
    peak = node.cpu_util
    sim.run(until=30)
    assert node.cpu_util < peak / 4


def test_crash_interrupts_spawned_processes():
    sim, node = build_node()
    survived = []

    def daemon():
        while True:
            yield sim.timeout(1)
            survived.append(sim.now)

    node.spawn(daemon(), name="d")

    def killer():
        yield sim.timeout(2.5)
        node.crash()

    sim.process(killer())
    sim.run(until=10)
    assert not node.alive
    assert all(t <= 2.5 for t in survived)


def test_deferred_call_runs_at_its_instant_and_dies_with_the_node():
    sim, node = build_node()
    ran = []
    node.defer(1.0, ran.append, "late")
    node.defer(0.0, ran.append, "now")
    # A deferral is no process: the load monitor is the only one.
    assert [p.name for p in node._procs] == [f"{node.hostid}:loadmon"]
    sim.run(until=0.5)
    assert ran == ["now"]
    node.crash()
    sim.run(until=5)
    assert ran == ["now"]                   # crashed before it was due


def test_deferred_call_is_not_revived_by_a_restart():
    sim, node = build_node()
    ran = []
    node.defer(2.0, ran.append, "before the crash")
    node.defer(0.0, ran.append, "same instant as the crash")
    node.crash()
    sim.run(until=1.0)
    node.restart()
    node.defer(0.5, ran.append, "after the restart")
    sim.run(until=5)
    assert ran == ["after the restart"]


def test_dormant_node_defers_nothing():
    sim = Simulator()
    node = Node(sim, Fabric(sim), small_cluster(2).nodes[0], dormant=True)
    pending = sim.pending_events
    ran = []
    node.defer(0.0, ran.append, "now")
    node.defer(1.0, ran.append, "later")
    assert sim.pending_events == pending
    sim.run(until=5)
    assert ran == []


def test_failing_deferred_call_surfaces_from_the_run():
    """Unlike a failed process nobody waits on, which dies unobserved."""
    sim, node = build_node()

    def boom(what):
        raise ValueError(what)

    node.defer(1.0, boom, "seen")
    with pytest.raises(ValueError, match="seen"):
        sim.run(until=5)


def test_crash_preserves_fs_contents():
    sim, node = build_node()

    def proc():
        yield from node.fs.create("seg")
        yield from node.fs.write("seg", 0, 4096)

    sim.run_process(sim.process(proc()))
    node.crash()
    assert node.fs.exists("seg")
    node.restart()
    assert node.alive
    assert node.fs.size_of("seg") == 4096


def test_crash_wipe_clears_fs():
    sim, node = build_node()

    def proc():
        yield from node.fs.create("seg")
        yield from node.fs.write("seg", 0, 4096)

    sim.run_process(sim.process(proc()))
    node.crash(wipe=True)
    assert not node.fs.exists("seg")
    assert node.fs.used == 0


def test_restart_resets_load():
    sim, node = build_node()

    def burn():
        yield node.cpu(node.cpu_pipe.rate * 3.0)

    sim.process(burn())
    sim.run(until=4)
    node.crash()
    node.restart()
    assert node.cpu_util == 0.0
    sim.run(until=10)  # monitor must run again without error
    assert node.alive


def test_a_crash_ends_the_rpc_of_a_one_branch_gather_it_interrupts():
    """A spawned caller waiting in a one-branch ``gather`` runs the branch
    in its own process, so the crash's interrupt goes through the branch:
    its RPC releases its answer slot and closes its span (parented under
    the caller's) at the crash, instead of lingering until a deadline."""
    sim = Simulator()
    fabric = Fabric(sim)
    client, server = (Node(sim, fabric, s) for s in small_cluster(2).nodes[:2])
    tracer = Tracer(sim)
    client.runtime.configure(tracer=tracer)

    def slow(payload, _src):
        yield sim.timeout(1.0)
        return payload, 8

    server.runtime.register("slow", slow)

    def caller():
        tracer.start("app")
        yield from gather(sim, [client.runtime.call(server.hostid, "slow")])

    proc = client.spawn(caller(), name="app")
    sim.run(until=0.5)
    assert len(client.runtime._pending) == 1
    client.crash()
    sim.run(until=0.5)                      # the interrupt's kick
    assert proc.ok and client.runtime._pending == {}
    (rpc,) = tracer.spans("rpc:slow")
    assert (rpc.status, rpc.end) == ("Interrupt", 0.5)
    assert rpc.parent is not None and rpc.parent.name == "app"
