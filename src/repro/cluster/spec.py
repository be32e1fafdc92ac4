"""Hardware descriptions of the paper's two clusters (Figure 8).

Cluster A: 30 dual P-II 400 MHz nodes, 512 MB each; 10 nodes export one
SCSI disk each (2 Cheetah ST373405LW + 8 Barracuda ST336737LW); total
exported capacity 210 GB (they exported partitions, so per-node exported
capacity is 21 GB, not the whole drive).

Cluster B: 46 nodes (8 dual P-III 1.3 GHz, 30 dual P-III 1.4 GHz, 4 quad
Xeon 1.8 GHz, 4 quad Xeon 2.4 GHz), 4 GB each; 38 nodes export a software
RAID-0 of three SCSI partitions; total 6.55 TB (~176 GB per exporting
node).  All access links are Fast Ethernet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.network.nic import FAST_ETHERNET_BPS

GB = 1 << 30
TB = 1 << 40


@dataclass(frozen=True)
class NodeSpec:
    """Static description of one cluster node."""

    name: str
    cpus: int = 2
    cpu_ghz: float = 1.0
    memory: int = 512 * (1 << 20)
    disks: tuple = ()              # DISK_SPECS keys; empty = no exported storage
    export_capacity: int = 0       # bytes exported to the storage volume
    nic_rate: float = FAST_ETHERNET_BPS

    @property
    def exports_storage(self) -> bool:
        return bool(self.disks) and self.export_capacity > 0


@dataclass
class ClusterSpec:
    """A full cluster: nodes plus fabric latency."""

    name: str
    nodes: List[NodeSpec] = field(default_factory=list)
    latency: float = 80e-6

    @property
    def storage_nodes(self) -> List[NodeSpec]:
        return [n for n in self.nodes if n.exports_storage]

    @property
    def compute_nodes(self) -> List[NodeSpec]:
        return [n for n in self.nodes if not n.exports_storage]

    @property
    def total_capacity(self) -> int:
        return sum(n.export_capacity for n in self.nodes)


def _cluster_a() -> ClusterSpec:
    nodes = []
    for i in range(30):
        if i < 2:
            disks = ("cheetah-st373405",)
        elif i < 10:
            disks = ("barracuda-st336737",)
        else:
            disks = ()
        nodes.append(NodeSpec(
            name=f"a{i:02d}",
            cpus=2,
            cpu_ghz=0.4,
            memory=512 * (1 << 20),
            disks=disks,
            export_capacity=21 * GB if disks else 0,
        ))
    return ClusterSpec("cluster-a", nodes)


def _cluster_b() -> ClusterSpec:
    nodes = []
    per_node = int(6.55 * TB) // 38
    for i in range(46):
        if i < 8:
            cpus, ghz = 2, 1.3
        elif i < 38:
            cpus, ghz = 2, 1.4
        elif i < 42:
            cpus, ghz = 4, 1.8
        else:
            cpus, ghz = 4, 2.4
        exports = i < 38
        nodes.append(NodeSpec(
            name=f"b{i:02d}",
            cpus=cpus,
            cpu_ghz=ghz,
            memory=4 * GB,
            disks=("ultrastar-dk32ej",) * 3 if exports else (),
            export_capacity=per_node if exports else 0,
        ))
    return ClusterSpec("cluster-b", nodes)


CLUSTER_A = _cluster_a()
CLUSTER_B = _cluster_b()


def small_cluster(
    n_storage: int,
    n_compute: int = 2,
    capacity_per_node: int = 4 * GB,
    disks_per_node: int = 1,
    disk: str = "ultrastar-dk32ej",
    cpu_ghz: float = 1.4,
    name: Optional[str] = None,
) -> ClusterSpec:
    """A reduced cluster for tests and quick benchmark runs."""
    nodes = [
        NodeSpec(
            name=f"s{i:02d}",
            cpus=2,
            cpu_ghz=cpu_ghz,
            disks=(disk,) * disks_per_node,
            export_capacity=capacity_per_node,
        )
        for i in range(n_storage)
    ]
    nodes += [
        NodeSpec(name=f"c{i:02d}", cpus=2, cpu_ghz=cpu_ghz)
        for i in range(n_compute)
    ]
    return ClusterSpec(name or f"small-{n_storage}s{n_compute}c", nodes)
