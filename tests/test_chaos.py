"""Chaos test: provider churn under live load must never lose data.

A writer keeps committing files while providers — the namespace host
among them — crash and restart on a schedule.  After quiescence, every
committed file must be readable and the replica audit must come back
healthy — the paper's whole pitch is that the system self-organizes
through exactly this.
"""

import random

import pytest

from repro.cluster import small_cluster
from repro.core import SorrentoConfig, SorrentoDeployment
from repro.core.client import SorrentoError
from repro.core.params import SorrentoParams
from repro.tools import ClusterInspector

MB = 1 << 20


@pytest.mark.parametrize("seed", [201, 202])
def test_provider_churn_never_loses_committed_data(seed):
    dep = SorrentoDeployment(
        small_cluster(5, n_compute=2, capacity_per_node=8 << 30),
        SorrentoConfig(
            params=SorrentoParams(default_degree=3, repair_delay=5.0,
                                  repair_grace=8.0, repair_cooldown=10.0,
                                  repair_bandwidth=8e6),
            seed=seed,
        ),
    )
    dep.warm_up()
    client = dep.client_on("c00")
    committed = []
    rng = random.Random(seed)

    def writer():
        i = 0
        while dep.sim.now < 240:
            path = f"/chaos{i}"
            try:
                fh = yield from client.open(path, "w", create=True)
                yield from client.write(fh, 0, 512 * 1024,
                                        data=None, sequential=True)
                yield from client.close(fh)
                committed.append(path)
            except SorrentoError:
                pass  # a crash window; fine, just not recorded
            i += 1
            yield dep.sim.timeout(4.0)

    def chaos():
        victims = sorted(dep.providers)     # the namespace host too
        while dep.sim.now < 200:
            victim = rng.choice(victims)
            yield dep.sim.timeout(rng.uniform(15, 30))
            if dep.nodes[victim].alive:
                dep.nodes[victim].crash()
                yield dep.sim.timeout(rng.uniform(20, 35))
                dep.nodes[victim].restart()

    w = dep.sim.process(writer())
    c = dep.sim.process(chaos())
    dep.sim.run(until=dep.sim.now + 260)
    assert w.triggered and c.triggered
    assert len(committed) >= 30  # the writer made real progress

    # Quiescence: repairs finish, everyone alive again.
    for host, p in dep.providers.items():
        if not p.node.alive:
            dep.nodes[host].restart()
    dep.sim.run(until=dep.sim.now + 240)

    def read_all():
        unreadable = []
        for path in committed:
            try:
                fh = yield from client.open(path, "r")
                yield from client.read(fh, 0, 4096)
                yield from client.close(fh)
            except SorrentoError as exc:
                unreadable.append((path, str(exc)))
        return unreadable

    unreadable = dep.run(read_all(), until=dep.sim.now + 600)
    assert unreadable == [], unreadable

    report = ClusterInspector(dep).replica_report()
    assert not report.version_divergent, report.version_divergent
    # Degree may still be settling on a few segments, but nothing lost.
    assert report.total_segments > 0
