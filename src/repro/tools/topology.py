"""Placement topology analysis (networkx views of a volume).

Administrators of a real Sorrento would ask: where does each file live,
which nodes back each other up, and what goes dark if a node dies?
These helpers answer that from live deployment state.
"""

from __future__ import annotations

from typing import Dict, List, Set

import networkx as nx

from repro.tools.inspector import ClusterInspector


def placement_graph(deployment) -> "nx.Graph":
    """Bipartite graph: provider nodes ↔ the segments they hold.

    Node attributes: ``kind`` ("provider" | "segment"); provider nodes
    carry ``utilization``; segment nodes carry ``degree`` (desired) and
    ``holders`` (actual).  Edges carry the held ``version``.
    """
    insp = ClusterInspector(deployment)
    g = nx.Graph()
    degrees = insp.segment_degrees()
    for host, provider in deployment.providers.items():
        if not provider.node.alive:
            continue
        g.add_node(host, kind="provider",
                   utilization=provider.node.storage_utilization)
    for segid, holders in insp.replica_map().items():
        sname = f"seg:{segid:x}"
        g.add_node(sname, kind="segment", degree=degrees.get(segid, 1),
                   holders=len(holders))
        for host, version in holders.items():
            g.add_edge(host, sname, version=version)
    return g


def replica_overlap_graph(deployment) -> "nx.Graph":
    """Provider graph where edge weight = number of co-held segments.

    Heavily weighted cliques mean correlated failure exposure: losing
    either endpoint stresses the same re-replication sources.
    """
    insp = ClusterInspector(deployment)
    g = nx.Graph()
    for host, p in deployment.providers.items():
        if p.node.alive:
            g.add_node(host)
    for segid, holders in insp.replica_map().items():
        hosts = sorted(holders)
        for i, a in enumerate(hosts):
            for b in hosts[i + 1:]:
                w = g.get_edge_data(a, b, {}).get("weight", 0)
                g.add_edge(a, b, weight=w + 1)
    return g


def availability_after_failure(deployment, failed: List[str]) -> Dict[str, List]:
    """What survives if ``failed`` nodes all die at once?

    Returns {"lost_segments": [...], "degraded_segments": [...],
    "lost_files": [...]}: segments with zero surviving replicas, segments
    that survive but below their desired degree, and files whose index or
    any data segment is lost.
    """
    insp = ClusterInspector(deployment)
    dead: Set[str] = set(failed)
    degrees = insp.segment_degrees()
    lost: List[int] = []
    degraded: List[int] = []
    for segid, holders in insp.replica_map().items():
        alive = [h for h in holders if h not in dead]
        if not alive:
            lost.append(segid)
        elif len(alive) < degrees.get(segid, 1):
            degraded.append(segid)
    lost_set = set(lost)
    lost_files: List[str] = []
    for path, entry in insp.file_entries():
        fileid = entry["fileid"]
        if fileid in lost_set:
            lost_files.append(path)
            continue
        meta = insp._index_meta(fileid)
        if meta is None:
            if entry["version"] > 0:
                lost_files.append(path)
            continue
        layout = meta.get("layout")
        if layout is not None and any(r.segid in lost_set
                                      for r in layout.segments):
            lost_files.append(path)
    return {"lost_segments": sorted(lost),
            "degraded_segments": sorted(degraded),
            "lost_files": sorted(lost_files)}


def max_survivable_failures(deployment) -> int:
    """The largest k such that *every* k-node failure keeps all data.

    Brute force over failure combinations — fine for the cluster sizes
    the experiments use; this is an offline planning query.
    """
    import itertools

    hosts = [h for h, p in deployment.providers.items() if p.node.alive]
    for k in range(1, len(hosts)):
        for combo in itertools.combinations(hosts, k):
            result = availability_after_failure(deployment, list(combo))
            if result["lost_segments"]:
                return k - 1
    return len(hosts) - 1
