#!/usr/bin/env python3
"""The paper's methodology in one script: one trace, replayed everywhere.

Builds a mixed small/large trace, then replays the identical trace
against Sorrento, NFS and PVFS deployments on the same (simulated)
hardware and prints the comparison — how the paper produced Figure 12.

Run:  python examples/three_systems.py
"""

from repro.baselines import NFSDeployment, PVFSDeployment
from repro.cluster import small_cluster
from repro.core import SorrentoConfig, SorrentoDeployment
from repro.core.params import SorrentoParams
from repro.workloads import Trace, replay

KB = 1 << 10
MB = 1 << 20


def mixed_trace() -> Trace:
    """Small files, then bulk reads of a big one, then the small files
    read back."""
    tr = Trace("mixed")
    for i in range(10):
        tr.add("open", path=f"/small{i}", mode="w", create=True)
        tr.add("write", path=f"/small{i}", size=12 * KB)
        tr.add("close", path=f"/small{i}")
    tr.add("open", path="/big", mode="w", create=True)
    for j in range(8):
        tr.add("write", path="/big", offset=j * MB, size=MB, sequential=True)
    tr.add("close", path="/big")
    for j in (3, 1, 6, 0, 5):
        tr.add("open", path="/big", mode="r")
        tr.add("read", path="/big", offset=j * MB, size=MB)
        tr.add("close", path="/big")
    for i in range(10):
        tr.add("open", path=f"/small{i}", mode="r")
        tr.add("read", path=f"/small{i}", size=12 * KB)
        tr.add("close", path=f"/small{i}")
    return tr


def main() -> None:
    spec = lambda: small_cluster(5, n_compute=2, capacity_per_node=8 << 30)  # noqa: E731
    trace = mixed_trace()
    print(f"trace: {len(trace)} operations "
          f"({trace.bytes_written / MB:.1f} MB written, "
          f"{trace.bytes_read / MB:.1f} MB read)")

    sor = SorrentoDeployment(spec(), SorrentoConfig(
        params=SorrentoParams(default_degree=2), seed=33))
    nfs = NFSDeployment(spec(), seed=33)
    pvfs = PVFSDeployment(spec(), n_iods=4, seed=33)
    results = {}
    for name, dep in (("Sorrento-(5,2)", sor), ("NFS", nfs),
                      ("PVFS-4", pvfs)):
        dep.warm_up()
        stats = dep.run(replay(dep.client_on("c00"), trace, mode="asap"))
        assert stats.errors == 0, name
        results[name] = stats.elapsed

    print("\nsame trace, three systems:")
    for name, t in sorted(results.items(), key=lambda kv: kv[1]):
        print(f"  {name:15s} {t:7.2f} s")
    print("\n(one client issuing requests back to back; Figures 9-11 "
          "vary the op mix and the client count)")


if __name__ == "__main__":
    main()
