"""Cluster hardware specs (paper Figure 8) and the simulated node."""

from repro.cluster.node import Node
from repro.cluster.spec import (
    CLUSTER_A,
    CLUSTER_B,
    ClusterSpec,
    NodeSpec,
    small_cluster,
)

__all__ = [
    "CLUSTER_A",
    "CLUSTER_B",
    "ClusterSpec",
    "Node",
    "NodeSpec",
    "small_cluster",
]
