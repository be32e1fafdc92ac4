#!/usr/bin/env python3
"""Operator's tour: inspect a live volume with the diagnosis toolbox.

Builds a replicated volume, loads data, then runs the admin-side
utilities: the cluster summary and the replica, orphan and location
audits — the "monitoring, diagnosis and maintenance utilities" companion
the paper mentions shipping alongside the core system.

Run:  python examples/cluster_doctor.py
"""

from repro.cluster import small_cluster
from repro.core import SorrentoConfig, SorrentoDeployment
from repro.core.params import SorrentoParams
from repro.tools import ClusterInspector

MB = 1 << 20


def main() -> None:
    dep = SorrentoDeployment(
        small_cluster(n_storage=5, n_compute=1, capacity_per_node=16 << 30),
        SorrentoConfig(params=SorrentoParams(default_degree=2), seed=77),
    )
    dep.warm_up()
    client = dep.client_on("c00")

    def load():
        for i in range(6):
            fh = yield from client.open(f"/f{i}", "w", create=True)
            yield from client.write(fh, 0, (i + 1) * MB, sequential=True)
            yield from client.close(fh)

    dep.run(load())
    dep.sim.run(until=dep.sim.now + 90)  # replication settles

    insp = ClusterInspector(dep)
    print("== cluster summary ==")
    print(insp.summary())

    report = insp.replica_report()
    print(f"\nreplication audit: ok={report.ok} "
          f"({report.healthy}/{report.total_segments} healthy)")
    print("orphans:", insp.orphaned_segments())
    audit = insp.location_audit()
    print(f"location tables: {len(audit['missing'])} missing, "
          f"{len(audit['ghost'])} ghost entries")


if __name__ == "__main__":
    main()
