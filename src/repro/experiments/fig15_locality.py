"""Figure 15: locality-driven data placement and migration (PSM service).

24 partitions on an 8-node volume under the ``locality`` placement
policy; 8 PSM service processes run co-located with the providers, each
statically assigned 3 partitions.  Initially only 4 partitions sit on
their reader's node; Sorrento must *discover* the access locality from
traffic and migrate partitions next to their processes, without service
interruption.

Shape targets (paper): I/O time per query starts ~62 ms, rises ~75 ms
while migration traffic competes with queries, then falls to ~46 ms
(~26% below start) once all partitions are local.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.common import cluster_b_like, format_table, sorrento_on
from repro.workloads import psm
from repro.workloads.replay import ReplayStats, replay

MB = 1 << 20


def run(scale: float = 0.03, n_queries: int = 120, query_gap: float = 4.0,
        seed: int = 0) -> Dict:
    dep = sorrento_on(
        cluster_b_like(n_storage=8, n_clients=1),
        n_providers=8, degree=1, seed=seed,
        migration_interval=30.0, locality_min_samples=10,
    )
    hosts = sorted(dep.providers)
    sizes = psm.partition_sizes(scale=scale)
    asg = psm.assignments()
    # Process p runs on hosts[p].  Pin partitions: the first 4 partitions
    # land on their reader's host; every other partition is deliberately
    # placed on a *different* host (paper: "only four partitions are
    # placed locally with their designated PSM service processes").
    local_map = []
    for p, parts in enumerate(asg):
        for j, part in enumerate(parts):
            reader = hosts[p % len(hosts)]
            if part < 4:
                local_map.append((part, reader))
            else:
                other = hosts[(p + 1 + j) % len(hosts)]
                local_map.append((part, other))
    psm.populate(dep, sizes, placement="locality", local_map=local_map)
    traces = psm.make_traces(sizes, n_queries=n_queries,
                             scan_fraction=0.04, query_gap=query_gap,
                             with_queries=True, seed=seed + 5)
    stats: List[ReplayStats] = [ReplayStats(name=t.name) for t in traces]
    procs = []
    for p, (trace, st) in enumerate(zip(traces, stats)):
        client = dep.client_on(hosts[p % len(hosts)])
        procs.append(dep.sim.process(
            replay(client, trace, mode="query", stats=st)))
    from repro.experiments.common import run_until_done

    run_until_done(dep.sim, procs)

    # Aggregate the per-query I/O times into 30-second buckets.
    events = sorted(
        (t, io) for st in stats for t, io in st.query_io_times
    )
    t0 = events[0][0] if events else 0.0
    buckets: Dict[int, List[float]] = {}
    for t, io in events:
        buckets.setdefault(int((t - t0) // 30), []).append(io)
    series = [(30 * (b + 1), 1000 * sum(v) / len(v))
              for b, v in sorted(buckets.items())]
    migrations = sum(p.stats["migrations"] for p in dep.providers.values())
    local_parts = _count_local(dep, hosts, asg, sizes)
    return {"series": series, "migrations": migrations,
            "finally_local": local_parts, "n_partitions": len(sizes)}


def _count_local(dep, hosts, asg, sizes) -> int:
    """Partitions whose data mostly lives on their reader's node."""
    from repro.tools import ClusterInspector

    insp = ClusterInspector(dep)
    replica_map = insp.replica_map()
    local = 0
    for p, parts in enumerate(asg):
        reader = hosts[p % len(hosts)]
        for part in parts:
            path = psm.partition_path(part)
            entry = dep.namespace_for(path).db.get("f:" + path)
            if entry is None:
                continue
            meta = insp._index_meta(entry.fileid)
            if meta is None or meta.get("layout") is None:
                continue
            segs = meta["layout"].segments
            on_reader = sum(
                1 for ref in segs
                if reader in replica_map.get(ref.segid, {})
            )
            if segs and on_reader >= 0.5 * len(segs):
                local += 1
    return local


def report(res: Dict) -> str:
    rows = [[t, io] for t, io in res["series"]]
    table = format_table(
        "Figure 15 - PSM I/O time per query under locality-driven "
        "migration (30 s buckets)",
        ["t (s)", "I/O ms/query"], rows)
    table += f"\nsegment migrations performed: {res['migrations']}"
    return table


def checks(res: Dict) -> list:
    bad = []
    series = res["series"]
    if len(series) < 4:
        return ["too few samples to judge the shape"]
    head = [io for _, io in series[:2]]
    tail = [io for _, io in series[-3:]]
    start = sum(head) / len(head)
    end = sum(tail) / len(tail)
    if res["migrations"] == 0:
        bad.append("no locality migrations happened")
    if not end < 0.9 * start:
        bad.append(f"I/O time should drop ≥10% (start {start:.1f} ms, "
                   f"end {end:.1f} ms)")
    return bad


def main(scale: float = 0.03) -> str:
    res = run(scale=scale)
    text = report(res)
    for problem in checks(res):
        text += f"\nSHAPE VIOLATION: {problem}"
    print(text)
    return text


if __name__ == "__main__":
    main()
