"""Tests for the declarative fault plane (``repro.faults``)."""

import random

import pytest

from repro.api import TimeoutError as SorrentoTimeout
from repro.cluster import small_cluster
from repro.core import SorrentoConfig, SorrentoDeployment
from repro.faults import (
    FAULT_SCOPE,
    DiskFault,
    DiskHeal,
    FaultController,
    FaultPlan,
    Heal,
    LinkDegrade,
    NodeCrash,
    NodeRestart,
    Partition,
    inject,
    recovery_metrics,
)
from repro.sim import Simulator
from repro.storage import DiskFaultState, DiskIOError
from repro.storage.disk import DISK_SPECS, Disk
from repro.storage.filesystem import LocalFS


def deploy(seed: int = 5) -> SorrentoDeployment:
    dep = SorrentoDeployment(small_cluster(3, n_compute=2),
                             SorrentoConfig(seed=seed))
    dep.warm_up()
    return dep


# ------------------------------------------------------------------ plans
def test_plan_builds_fluently_and_sorts():
    plan = (FaultPlan()
            .at(45.0, NodeRestart("b00"))
            .at(30.0, NodeCrash("b00"))
            .at(30.0, Partition(("b01",))))
    assert len(plan) == 3
    assert plan.duration == 45.0
    kinds = [ev.kind for _, ev in plan.schedule()]
    # Stable sort: the 30.0 tie keeps insertion order.
    assert kinds == ["node_crash", "partition", "node_restart"]


def test_plan_rejects_bad_entries():
    with pytest.raises(ValueError):
        FaultPlan().at(-1.0, NodeCrash("b00"))
    with pytest.raises(TypeError):
        FaultPlan().at(1.0, "crash b00 please")


def test_controller_records_timeline_and_metrics():
    dep = deploy()
    victim = sorted(dep.providers)[1]
    assert victim != dep.ns_host
    plan = (FaultPlan()
            .at(1.0, NodeCrash(victim))
            .at(2.0, NodeRestart(victim)))
    t0 = dep.sim.now
    controller = inject(dep, plan)
    dep.sim.run(until=t0 + 5.0)
    assert [(t - t0, kind) for t, kind, _ in controller.timeline] == \
        [(1.0, "node_crash"), (2.0, "node_restart")]
    assert dep.nodes[victim].alive
    assert dep.metrics.stats(FAULT_SCOPE, "node_crash").oneways == 1
    assert dep.metrics.stats(FAULT_SCOPE, "node_restart").oneways == 1


def test_controller_starts_once():
    dep = deploy()
    controller = FaultController(dep, FaultPlan())
    controller.start()
    with pytest.raises(RuntimeError):
        controller.start()


# -------------------------------------------------------------- partitions
def test_partition_isolates_rpcs_until_heal():
    dep = deploy()
    client = dep.client_on("c00")
    inject(dep, (FaultPlan()
                 .at(2.0, Partition((dep.ns_host,)))
                 .at(20.0, Heal())))
    t0 = dep.sim.now

    def scenario():
        yield from client.create("/f")
        yield dep.sim.timeout(t0 + 3.0 - dep.sim.now)
        with pytest.raises(SorrentoTimeout):
            yield from client.stat("/f")
        yield dep.sim.timeout(t0 + 25.0 - dep.sim.now)
        entry = yield from client.stat("/f")
        return entry

    assert dep.run(scenario())["version"] == 0


def test_asymmetric_partition_blocks_one_direction():
    dep = deploy()
    a, b = "c00", "c01"
    got = {"a": 0, "b": 0}
    dep.nodes[a].runtime.register(
        "ping", lambda payload, src: got.__setitem__("a", got["a"] + 1))
    dep.nodes[b].runtime.register(
        "ping", lambda payload, src: got.__setitem__("b", got["b"] + 1))
    inject(dep, FaultPlan().at(0.0, Partition((a,), (b,), symmetric=False)))
    t0 = dep.sim.now

    def scenario():
        yield dep.sim.timeout(0.5)  # let the partition land first
        dep.nodes[a].runtime.send(b, "ping")   # blocked direction
        dep.nodes[b].runtime.send(a, "ping")   # open direction
        yield dep.sim.timeout(2.0)

    dep.run(scenario())
    assert got == {"a": 1, "b": 0}
    assert dep.fabric.messages_dropped >= 1
    assert dep.sim.now > t0


# ---------------------------------------------------------- degraded links
def _noisy_run(seed: int):
    """A client workload under a lossy, duplicating, jittery fabric."""
    dep = deploy(seed)
    client = dep.client_on("c00")
    inject(dep, FaultPlan().at(0.0, LinkDegrade(
        drop=0.1, duplicate=0.3, jitter=0.002)))

    def workload():
        for i in range(6):
            try:
                fh = yield from client.open(f"/n{i}", "w", create=True)
                yield from client.write(fh, 0, 4096)
                yield from client.close(fh)
            except Exception:
                pass  # a lossy link may time a call out; keep going
        yield dep.sim.timeout(5.0)

    dep.run(workload())
    return (dep.sim.now, dep.fabric.messages_sent,
            dep.fabric.messages_dropped, dep.fabric.messages_duplicated)


def test_degraded_link_is_seed_deterministic():
    one = _noisy_run(7)
    two = _noisy_run(7)
    assert one == two
    assert one[2] > 0       # drops actually happened
    assert one[3] > 0       # duplicates actually happened


def test_duplicated_requests_execute_once():
    dep = deploy()
    calls = {"n": 0}

    def bump(payload, src):
        calls["n"] += 1
        return calls["n"]

    dep.nodes["c01"].runtime.register("bump", bump)
    inject(dep, FaultPlan().at(0.0, LinkDegrade(duplicate=1.0)))

    def scenario():
        yield dep.sim.timeout(0.1)  # let the degradation land first
        results = []
        for _ in range(5):
            r = yield from dep.nodes["c00"].runtime.call("c01", "bump")
            results.append(r)
        return results

    assert dep.run(scenario()) == [1, 2, 3, 4, 5]
    assert calls["n"] == 5  # at-most-once: duplicates never re-execute
    assert dep.fabric.messages_duplicated > 0


# ------------------------------------------------------------- disk faults
def test_disk_fault_raises_io_errors():
    sim = Simulator()
    disk = Disk(sim, DISK_SPECS["cheetah-st373405"])
    disk.set_fault(DiskFaultState(rng=random.Random(1), error_rate=1.0))

    def proc():
        with pytest.raises(DiskIOError):
            yield disk.io(4096)
        return disk.io_errors

    assert sim.run_process(sim.process(proc())) == 1


def test_disk_fault_surfaces_through_the_filesystem():
    sim = Simulator()
    disk = Disk(sim, DISK_SPECS["cheetah-st373405"])
    fs = LocalFS(sim, disk)

    def proc():
        yield from fs.create("seg0")
        disk.set_fault(DiskFaultState(rng=random.Random(2), error_rate=1.0))
        with pytest.raises(DiskIOError):
            yield from fs.write("seg0", 0, 1 << 20)

    sim.run_process(sim.process(proc()))
    assert disk.io_errors >= 1


def test_disk_slowdown_inflates_service_time():
    sim = Simulator()
    plain = Disk(sim, DISK_SPECS["cheetah-st373405"])
    slow = Disk(sim, DISK_SPECS["cheetah-st373405"])
    slow.set_fault(DiskFaultState(slowdown=4.0))
    done = {}

    def measure(name, disk):
        yield disk.io(1 << 20, sequential=True)
        done[name] = sim.now

    sim.process(measure("plain", plain))
    sim.process(measure("slow", slow))
    sim.run()
    assert done["slow"] == pytest.approx(4.0 * done["plain"])


def test_disk_fault_installs_and_heals_through_the_plan():
    dep = deploy()
    victim = sorted(dep.providers)[1]
    device = dep.nodes[victim].device
    inject(dep, (FaultPlan()
                 .at(1.0, DiskFault(victim, slowdown=8.0))
                 .at(2.0, DiskHeal(victim))))
    t0 = dep.sim.now
    dep.sim.run(until=t0 + 1.5)
    assert device.fault is not None and device.fault.slowdown == 8.0
    dep.sim.run(until=t0 + 3.0)
    assert device.fault is None


# ---------------------------------------------------------------- analysis
def test_recovery_metrics_on_a_synthetic_dip():
    times = [float(t) for t in range(1, 13)]
    rates = [100.0, 100.0, 100.0, 20.0, 40.0, 95.0,
             96.0, 97.0, 95.0, 96.0, 95.0, 95.0]
    m = recovery_metrics(times, rates, fault_at=3.0)
    assert m["baseline"] == pytest.approx(100.0)
    assert m["dip_depth"] == pytest.approx(0.8)
    # First sustained (two-sample) window at >= 90 MB/s starts at t=6.
    assert m["mttr"] == pytest.approx(6.0 - 3.0)
    assert m["steady_delta"] < 0.1
