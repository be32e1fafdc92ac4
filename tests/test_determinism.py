"""Determinism: identical seeds replay identically.

Every failure-injection experiment depends on this — if two runs with
one seed diverge, bug reports become unreproducible.
"""

from repro.cluster import small_cluster
from repro.core import SorrentoConfig, SorrentoDeployment
from repro.core.params import SorrentoParams

MB = 1 << 20


def run_scenario(seed):
    dep = SorrentoDeployment(
        small_cluster(4, n_compute=2, capacity_per_node=8 << 30),
        SorrentoConfig(params=SorrentoParams(default_degree=2), seed=seed),
    )
    dep.warm_up()
    client = dep.client_on("c00")

    def work():
        yield from client.mkdir("/d")
        for i in range(5):
            fh = yield from client.open(f"/d/f{i}", "w", create=True)
            yield from client.write(fh, 0, (i + 1) * 256 * 1024)
            yield from client.close(fh)
        yield from client.unlink("/d/f2")
        fh = yield from client.open("/d/f0", "r")
        yield from client.read(fh, 0, 64 * 1024)
        yield from client.close(fh)

    dep.run(work())
    dep.nodes[sorted(h for h in dep.providers
                     if h != dep.ns_host)[0]].crash()
    dep.sim.run(until=dep.sim.now + 60)
    fingerprint = (
        round(dep.sim.now, 9),
        dep.sim._nprocessed,
        dep.fabric.messages_sent,
        tuple(sorted(
            (h, len(p.store), p.node.fs.used)
            for h, p in dep.providers.items()
        )),
        tuple(sorted(
            (h, p.stats["replications"], p.stats["syncs"])
            for h, p in dep.providers.items()
        )),
    )
    return fingerprint


def test_same_seed_same_universe():
    assert run_scenario(5) == run_scenario(5)


def test_different_seed_different_universe():
    a, b = run_scenario(5), run_scenario(6)
    # Placement/randomized behaviour must actually differ across seeds.
    assert a != b
