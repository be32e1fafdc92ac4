#!/usr/bin/env python3
"""Self-organization demo: node failure, recovery, and live expansion.

Reproduces in miniature what the paper's Figure 13 measures: kill a
provider under load, watch the system redirect I/O and restore lost
replicas; then hot-add a brand-new provider and watch it absorb data.

Run:  python examples/self_healing.py
"""

from repro.cluster import NodeSpec, small_cluster
from repro.core import SorrentoConfig, SorrentoDeployment
from repro.core.params import SorrentoParams

GB = 1 << 30
MB = 1 << 20


def replica_census(dep, segids):
    counts = {}
    for segid in segids:
        counts[segid] = sum(
            1 for p in dep.providers.values()
            if p.node.alive and p.store.latest_committed(segid) is not None
        )
    return counts


def main() -> None:
    dep = SorrentoDeployment(
        small_cluster(n_storage=5, n_compute=2, capacity_per_node=16 * GB),
        SorrentoConfig(params=SorrentoParams(default_degree=3,
                                             repair_delay=5.0), seed=7),
    )
    dep.warm_up()
    client = dep.client_on("c00")

    # Write a 16 MB file, replicated three ways.
    def write():
        fh = yield from client.open("/data", "w", create=True)
        yield from client.write(fh, 0, 16 * MB, sequential=True)
        yield from client.close(fh)
        return [r.segid for r in fh.layout.segments]

    segids = dep.run(write())
    dep.sim.run(until=dep.sim.now + 60)  # lazy replication completes
    print("replicas per segment after write:", list(replica_census(dep, segids).values()))

    # Kill a provider that holds data (never the namespace host here).
    victim = next(h for h in sorted(dep.providers)
                  if h != dep.ns_host
                  and dep.providers[h].store.committed_segments())
    print(f"crashing {victim} ...")
    dep.nodes[victim].crash()
    dep.sim.run(until=dep.sim.now + 10)

    # Reads keep working off surviving replicas.
    def read():
        fh = yield from client.open("/data", "r")
        yield from client.read(fh, 0, 1 * MB)
        yield from client.close(fh)
        return True

    assert dep.run(read())
    print("reads survived the failure")

    # Re-replication restores the degree in the background.
    dep.sim.run(until=dep.sim.now + 120)
    census = replica_census(dep, segids)
    print("replicas per segment after repair:", list(census.values()))
    assert all(c >= 3 for c in census.values()), census

    # Hot-add a brand new node: no reconfiguration, it just joins.
    print("adding fresh provider 'snew' ...")
    dep.add_provider(NodeSpec(name="snew", cpus=2, cpu_ghz=1.4,
                              disks=("ultrastar-dk32ej",),
                              export_capacity=16 * GB))
    dep.sim.run(until=dep.sim.now + 30)
    member_views = {
        h: len(p.membership.live_providers())
        for h, p in dep.providers.items() if p.node.alive
    }
    print("provider membership view sizes:", member_views)

    # The crashed node comes back: its on-disk data is stale but the
    # version scheme works out what is current.
    print(f"restarting {victim} ...")
    dep.nodes[victim].restart()
    dep.sim.run(until=dep.sim.now + 60)
    print("cluster healed; total providers:",
          len([p for p in dep.providers.values() if p.node.alive]))


if __name__ == "__main__":
    main()
