"""Compute scenarios: scheduling jobs where their bytes live.

The paper stops at storage self-organization; this family drives the
compute plane built on top of it (``repro.compute``) and measures what
data-locality scheduling buys.  Three scenarios:

* ``map_scan`` — the PSM trace generalized: one full-file scan task per
  partition file, partitions pinned across providers (a seeded shuffle,
  so no baseline accidentally aligns with the data).  The headline is
  **network bytes moved** — remote input bytes pulled by tasks plus
  bytes moved by the scheduler's pre-staging — and **makespan**.
* ``shuffle``  — the same scans, each followed by a spill write of a
  quarter of its input to a task-unique output file (reduce-side
  pressure: outputs place by load, so even perfect input locality
  still moves bytes).
* ``waves``    — multi-tenant job waves: tenants picked by a Zipf law,
  one job bundle per wave, waves arriving on an interval.  The
  scale-suite traffic shape, aimed at the queue instead of raw I/O.

Every scenario runs under each scheduling ``policy`` — ``locality``
(score = resident bytes + access-history affinity, with migration
pre-staging), ``random``, and ``round_robin`` — the ablation in
EXPERIMENTS.md.

Runs standalone::

    python -m repro.experiments.compute [--quick]
        [--scenario map_scan|shuffle|waves|all] [--policy P|all]
        [--files N] [--file-mb M] [--providers N] [--seed S] [--json]
        [--budget-wall S] [--budget-rss-mb M]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional

from repro.cluster import small_cluster
from repro.compute import POLICIES, ComputeAPI, start_compute
from repro.experiments.common import (
    add_budget_args,
    format_table,
    over_budget,
    peak_rss_mb,
    run_until_done,
    sorrento_on,
)
from repro.experiments.scale_model import zipf_cum_weights

GB = 1 << 30
MB = 1 << 20

SCENARIOS = ("map_scan", "shuffle", "waves")

#: Zipf skew for the waves scenario's tenant popularity.
ZIPF_S = 1.2


# --------------------------------------------------------------- builders
def _build(n_providers: int, n_files: int, file_mb: int, seed: int):
    """A cluster with ``n_files`` partition files pinned to a seeded
    shuffle of the providers (degree 1: byte attribution is exact)."""
    spec = small_cluster(n_providers, n_compute=2,
                         capacity_per_node=16 * GB,
                         name=f"compute-{n_providers}")
    dep = sorrento_on(spec, n_providers, degree=1, seed=seed, warm=6.0)
    providers = sorted(dep.providers)
    pin_rng = dep.rngs.py("compute:pin")
    pins = [providers[pin_rng.randrange(len(providers))]
            for _ in range(n_files)]
    paths = []
    for i, pin in enumerate(pins):
        path = f"/part/{i:04d}"
        dep.preload_file(path, file_mb * MB, degree=1, on=[pin])
        paths.append(path)
    return dep, paths


# ------------------------------------------------------------- run points
def run_point(scenario: str, policy: str, *, n_providers: int = 6,
              n_files: int = 24, file_mb: int = 2, seed: int = 11,
              n_waves: int = 3, tasks_per_wave: int = 12,
              wave_interval: float = 2.0,
              prestage: bool = True) -> Dict[str, float]:
    """One (scenario, policy) cell of the ablation; returns a row."""
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    t_build = time.perf_counter()
    dep, paths = _build(n_providers, n_files, file_mb, seed)
    # Waves run workers on half the providers only (a compute-dedicated
    # subset): inputs living elsewhere *must* move, so this is the
    # scenario that exercises pre-staging — locality moves a hot file
    # once and re-hits it, the baselines pull it wave after wave.
    workers = sorted(dep.providers)
    if scenario == "waves":
        workers = workers[:max(2, len(workers) // 2)]
    queue = start_compute(dep, policy=policy, prestage=prestage,
                          workers=workers)
    api = ComputeAPI(dep.client_on("c01")).bind(queue.host)
    results: List[dict] = []

    if scenario == "waves":
        rng = dep.rngs.py("compute:waves")
        cum = zipf_cum_weights(n_files, ZIPF_S)

        def wave(w):
            yield dep.sim.timeout(w * wave_interval)
            picks = rng.choices(range(n_files), cum_weights=cum,
                                k=tasks_per_wave)
            st = yield from api.run([{"path": paths[i]} for i in picks],
                                    job=f"wave-{w}")
            results.append(st)

        procs = [dep.sim.process(wave(w)) for w in range(n_waves)]
    else:
        tasks = []
        for i, path in enumerate(paths):
            spec = {"path": path}
            if scenario == "shuffle":
                spec["kind"] = "shuffle"
                spec["out"] = f"/spill/{policy}-{i:04d}"
                spec["out_size"] = file_mb * MB // 4
            tasks.append(spec)

        def job():
            if scenario == "shuffle":
                yield from api.client.mkdir("/spill")
            st = yield from api.run(tasks, job=scenario)
            results.append(st)

        procs = [dep.sim.process(job())]

    t_run = time.perf_counter()
    sim_start = dep.sim.now
    run_until_done(dep.sim, procs, max_time=dep.sim.now + 600.0)
    wall = time.perf_counter() - t_run
    # Drain in-flight pre-stage transfers so every byte the scheduler
    # moved is counted before the row is read.
    drain_until = dep.sim.now + 120.0
    while queue.prestage_inflight and dep.sim.now < drain_until:
        dep.sim.run(until=dep.sim.now + 0.5)

    st = queue.stats
    total = sum(r["total"] for r in results)
    done = sum(r["done"] for r in results)
    makespan = max((r["makespan"] or 0.0) for r in results) \
        if results else 0.0
    net_bytes = st["task_remote_bytes"] + st["prestage_bytes"]
    return {
        "scenario": scenario, "policy": policy,
        "providers": n_providers, "tasks": total, "done": done,
        "failed": sum(r["failed"] for r in results),
        "makespan_s": round(makespan, 4),
        "net_mb": round(net_bytes / MB, 2),
        "remote_mb": round(st["task_remote_bytes"] / MB, 2),
        "prestage_mb": round(st["prestage_bytes"] / MB, 2),
        "local_mb": round(st["task_local_bytes"] / MB, 2),
        "out_mb": round(st["task_out_bytes"] / MB, 2),
        "local": st["class_local"], "prestaged": st["class_prestaged"],
        "pulled": st["class_pulled"], "requeued": st["requeued"],
        "sim_s": round(dep.sim.now - sim_start, 3),
        "wall_s": round(time.perf_counter() - t_run, 3),
        "total_wall_s": round(time.perf_counter() - t_build, 3),
        "events": dep.sim._nprocessed,
        "events_per_s": round(dep.sim._nprocessed / max(wall, 1e-9), 1),
        "peak_rss_mb": round(peak_rss_mb(), 1),
    }


def run(scenarios: Optional[List[str]] = None,
        policies: Optional[List[str]] = None, quick: bool = False,
        seed: int = 11, **overrides) -> List[Dict[str, float]]:
    """The full ablation grid; returns one row per (scenario, policy)."""
    sizes = dict(n_providers=4, n_files=12, file_mb=1,
                 n_waves=2, tasks_per_wave=8) if quick else {}
    sizes.update(overrides)
    rows = []
    for scenario in scenarios or SCENARIOS:
        for policy in policies or POLICIES:
            rows.append(run_point(scenario, policy, seed=seed, **sizes))
    return rows


def report(rows: List[Dict[str, float]]) -> str:
    cols = ["scenario", "policy", "tasks", "done", "failed", "makespan_s",
            "net_mb", "remote_mb", "prestage_mb", "local", "prestaged",
            "pulled", "wall_s"]
    return format_table("Compute - locality-aware scheduling ablation",
                        cols, [[r[c] for c in cols] for r in rows])


def checks(rows: List[Dict[str, float]]) -> List[str]:
    """Shape assertions; returns a list of violated expectations."""
    bad = []
    by_cell = {(r["scenario"], r["policy"]): r for r in rows}
    for r in rows:
        if r["done"] < r["tasks"] or r["failed"]:
            bad.append(f"{r['scenario']}/{r['policy']}: "
                       f"{r['done']}/{r['tasks']} done, "
                       f"{r['failed']} failed")
    for scenario in SCENARIOS:
        loc = by_cell.get((scenario, "locality"))
        rnd = by_cell.get((scenario, "random"))
        if loc is None or rnd is None:
            continue
        # The acceptance bar: locality moves >= 40% fewer network bytes
        # than random scheduling on the scan-shaped scenarios.
        if scenario in ("map_scan", "shuffle") \
                and loc["net_mb"] > 0.6 * rnd["net_mb"]:
            bad.append(f"{scenario}: locality moved {loc['net_mb']} MB "
                       f"vs random {rnd['net_mb']} MB (< 40% saving)")
        if loc["local"] <= rnd["local"]:
            bad.append(f"{scenario}: locality placed {loc['local']} tasks "
                       f"on their bytes vs random {rnd['local']}")
    return bad


def main(quick: bool = False, seed: int = 11) -> str:
    rows = run(quick=quick, seed=seed)
    text = report(rows)
    for problem in checks(rows):
        text += f"\nSHAPE VIOLATION: {problem}"
    print(text)
    return text


def _cli(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--scenario", default="all",
                        choices=SCENARIOS + ("all",))
    parser.add_argument("--policy", default="all",
                        choices=POLICIES + ("all",))
    parser.add_argument("--providers", type=int, default=None)
    parser.add_argument("--files", type=int, default=None)
    parser.add_argument("--file-mb", type=int, default=None)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--json", action="store_true",
                        help="print one machine-readable dict per row")
    add_budget_args(parser)
    args = parser.parse_args(argv)

    overrides = {}
    if args.providers is not None:
        overrides["n_providers"] = args.providers
    if args.files is not None:
        overrides["n_files"] = args.files
    if args.file_mb is not None:
        overrides["file_mb"] = args.file_mb
    scenarios = list(SCENARIOS) if args.scenario == "all" \
        else [args.scenario]
    policies = list(POLICIES) if args.policy == "all" else [args.policy]
    rows = run(scenarios, policies, quick=args.quick, seed=args.seed,
               **overrides)

    if args.json:
        for row in rows:
            print(json.dumps(row))
    else:
        print(report(rows))

    problems = checks(rows)
    for row in rows:
        problems += over_budget(args, f"{row['scenario']}/{row['policy']}",
                                row["wall_s"], row["peak_rss_mb"])
    for problem in problems:
        print(f"COMPUTE BUDGET/SHAPE VIOLATION: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(_cli())
