"""Namespace shard curve: metadata ops/s vs clients at 1, 2 and 4 shards.

Figure 10's shape (add clients until the namespace server saturates) on
the sharded namespace: closed-loop create + stat, no data I/O, one
top-level directory per client so the prefix ring spreads them.  A curve
is ``{(shards, clients): row}``.  ``python -m
repro.experiments.ns_shard_curve [--quick] [--budget-wall S]
[--budget-rss-mb M]`` exits non-zero on a shape or budget violation.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List

from repro.core import SorrentoConfig, SorrentoDeployment
from repro.core.params import SorrentoParams
from repro.experiments.common import (
    add_budget_args,
    format_table,
    over_budget,
    peak_rss_mb,
    run_until_done,
)
from repro.experiments.tiered import tiered_cluster

UNSATURATED = 32    # one server keeps up with this many closed-loop clients


def _md_client(client, home: str, row: Dict, deadline: float):
    yield from client.mkdir(home)
    i = 0
    while client.sim.now < deadline:
        path = f"{home}/f{i:05d}"
        try:
            yield from client.create(path)
            yield from client.stat(path)
            row["ops"] += 2
        except Exception:
            row["failed"] += 1
        i += 1


def run_point(n_shards: int, n_clients: int, duration: float = 8.0) -> Dict:
    dep = SorrentoDeployment(
        tiered_cluster(8, n_clients, 0),
        SorrentoConfig(params=SorrentoParams(default_degree=1),
                       n_providers=8, namespace_shards=n_shards))
    dep.warm_up(4.0)
    t0 = dep.sim.now
    row = {"ops": 0, "failed": 0}
    clients = dep.clients_on_compute(n_clients)
    procs = [dep.sim.process(_md_client(c, f"/c{i:02d}", row, t0 + duration))
             for i, c in enumerate(clients)]
    run_until_done(dep.sim, procs, max_time=t0 + duration + 60.0)
    row["md_ops_per_s"] = round(row["ops"] / (dep.sim.now - t0), 1)
    return row


def run(quick: bool = False) -> Dict:
    shards, clients, duration = ((1, 2), (8, 64), 3.0) if quick \
        else ((1, 2, 4), (4, 8, 16, 32, 64, 128), 8.0)
    return {(s, c): run_point(s, c, duration)
            for s in shards for c in clients}


def report(curve: Dict) -> str:
    shards = sorted({s for s, _ in curve})
    rows = [[c] + [curve[s, c]["md_ops_per_s"] for s in shards]
            for c in sorted({c for _, c in curve})]
    return format_table("Namespace shard curve - metadata ops per sim-second",
                        ["clients"] + [f"{s} shard(s)" for s in shards], rows)


def checks(curve: Dict) -> List[str]:
    bad = []
    for (s, c), row in sorted(curve.items()):
        got, one = row["md_ops_per_s"], curve[1, c]["md_ops_per_s"]
        if c <= UNSATURATED and abs(got / one - 1) > 0.25:
            bad.append(f"{c} clients: {s} shards at {got} ops/s, one shard "
                       f"at {one} (curves coincide below saturation)")
        if (s, c) == (2, 64) and got < 1.6 * one:
            bad.append(f"64 clients: 2 shards at {got} ops/s, under 1.6x "
                       f"one shard's {one}")
    return bad


def main(quick: bool = False) -> str:
    curve = run(quick)
    text = report(curve)
    for problem in checks(curve):
        text += f"\nSHAPE VIOLATION: {problem}"
    print(text)
    return text


def _cli(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    add_budget_args(parser)
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    curve = run(args.quick)
    print(report(curve))
    problems = checks(curve) + over_budget(
        args, "", round(time.perf_counter() - t0, 3), round(peak_rss_mb(), 1))
    for problem in problems:
        print(f"SHARD CURVE BUDGET/SHAPE VIOLATION: {problem}",
              file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(_cli())
