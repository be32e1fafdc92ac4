"""Scale suite: Sorrento state machinery at 100-1000 providers.

The paper's clusters top out at 46 nodes; Section 6 argues the design
"self-organizes" to much larger installations.  This suite builds
clusters of 100, 300 and 1000 providers, preloads 10^5-scale file
populations and drives thousands of short sessions — tenants picked by
a Zipf law, arrivals following a diurnal wave — then reports how fast
the simulation runs (sim-seconds per wall-second; formation's events
and wall apart), how much memory the cluster state takes (peak RSS) and
whether the protocol stack kept up (session success rate).

These numbers are the regression surface for the cluster-state machinery:
planted formation, one shared hash ring per member set, indexed segment
store, generation-cached membership and owner-indexed location tables.

Runs standalone::

    python -m repro.experiments.scale [--quick] [--point N]
        [--files F] [--sessions S] [--duration D] [--json]
        [--workers N] [--backend mp|inproc|serial]
        [--cross-latency S] [--budget-wall S] [--budget-rss-mb M]

``--workers N`` runs the point on the conservative-parallel kernel:
the cluster is partitioned across N event loops (see
``repro.sim.parallel`` and ``repro.experiments.partitioned``).

``--json`` prints one machine-readable result dict per point (run one
``--point`` per process and peak RSS is attributable to it).  The
``--budget-*`` flags make the process exit non-zero when a budget is
exceeded (the CI ``scale-smoke`` job).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import SorrentoConfig, SorrentoDeployment, hashing
from repro.experiments.common import (
    add_budget_args,
    collector_time,
    format_table,
    over_budget,
    peak_rss_mb,
    rss_bytes,
    run_until_done,
)
from repro.experiments.scale_model import (
    FILE_SIZE,
    N_CLIENT_STUBS,
    N_TENANTS,
    READ_SIZE,
    _tenant_file,
    draw_sessions,
    files_per_tenant,
    scale_params,
    scale_spec,
)

KB = 1 << 10

#: (providers, files, sessions, sim-seconds of measured traffic).
SCALE_POINTS: Tuple[Tuple[int, int, int, float], ...] = (
    (100, 100_000, 2_000, 10.0),
    (300, 200_000, 3_000, 10.0),
    (1000, 200_000, 4_000, 10.0),
)
QUICK_POINTS: Tuple[Tuple[int, int, int, float], ...] = (
    (100, 20_000, 500, 6.0),
)


def _session(client, path: str, delay: float, counters: Dict[str, int]):
    """One user session: arrive, open, read, close."""
    yield client.sim.timeout(delay)
    try:
        fh = yield from client.open(path, "r")
        yield from client.read(fh, 0, READ_SIZE)
        yield from client.close(fh)
        counters["done"] += 1
    except Exception:
        counters["failed"] += 1


def run_point(n_providers: int, n_files: int, n_sessions: int,
              duration: float, seed: int = 0) -> Dict[str, float]:
    """Build, preload, and drive one cluster size; returns the metrics row."""
    params = scale_params(n_providers)
    sorts = hashing.derived["sorts"]
    t_build = time.perf_counter()
    dep = SorrentoDeployment(scale_spec(n_providers),
                             SorrentoConfig(params=params, seed=seed))

    # The first heartbeat round is planted in every membership view, and
    # a formation join into an empty store owes no refresh.
    t_form = time.perf_counter()
    dep.warm_up(params.join_refresh_delay_max + 1.0)
    formation_wall = time.perf_counter() - t_form
    formation_events = dep.sim._nprocessed

    # Then preload the file population (planted directly through the
    # bulk fast path: no simulated I/O, so sim.now does not advance and
    # no protocol traffic fires).
    t_preload, rss_preload = time.perf_counter(), rss_bytes()
    fpt = files_per_tenant(n_files)
    dep.preload_files(
        ((_tenant_file(tenant, i), FILE_SIZE)
         for tenant in range(N_TENANTS) for i in range(fpt)),
        degree=1)
    preload_wall = time.perf_counter() - t_preload
    # Host memory per planted file, as RSS growth (CI bounds it).
    planted_kb = (rss_bytes() - rss_preload) / 1024 / (N_TENANTS * fpt)

    # Thousands of sessions: Zipf tenant skew, diurnal arrival wave,
    # multiplexed over a fixed pool of client stubs.
    rng = dep.rngs.py("scale-sessions")
    clients = dep.clients_on_compute(N_CLIENT_STUBS)
    counters = {"done": 0, "failed": 0}
    procs = [
        dep.sim.process(_session(
            clients[i % N_CLIENT_STUBS], path, arrival, counters))
        for i, path, arrival in draw_sessions(rng, n_sessions, duration, fpt)
    ]

    t_run = time.perf_counter()
    sim_start = dep.sim.now
    with collector_time() as collector:
        run_until_done(dep.sim, procs,
                       max_time=dep.sim.now + duration + 300.0)
    wall = time.perf_counter() - t_run
    sim_elapsed = dep.sim.now - sim_start

    return {
        "providers": n_providers,
        "files": N_TENANTS * fpt,
        "sessions_done": counters["done"],
        "sessions_failed": counters["failed"],
        "sim_s": round(sim_elapsed, 3),
        "wall_s": round(wall, 3),
        "sim_per_wall": round(sim_elapsed / max(wall, 1e-9), 3),
        "events": dep.sim._nprocessed,
        "events_per_s": round(dep.sim._nprocessed / max(wall, 1e-9), 1),
        # What the cyclic collector took of wall_s (CI bounds the share).
        "gc_wall_s": round(collector["gc_wall_s"], 3),
        "gc_full": collector["gc_full"],
        "formation_events": formation_events,
        "formation_wall_s": round(formation_wall, 3),
        "preload_wall_s": round(preload_wall, 3),
        "planted_kb_per_file": round(planted_kb, 2),
        "total_wall_s": round(time.perf_counter() - t_build, 3),
        "peak_rss_mb": round(peak_rss_mb(), 1),
        "ring_sorts": hashing.derived["sorts"] - sorts,
    }


def run(points: Optional[Sequence[Tuple[int, int, int, float]]] = None,
        quick: bool = False, seed: int = 0, workers: int = 0,
        backend: str = "mp", cross_latency: Optional[float] = None,
        ) -> Dict[int, Dict[str, float]]:
    """Returns {n_providers: metrics row}.

    With ``workers > 0`` each point runs on the conservative-parallel
    kernel (``repro.experiments.partitioned``): the cluster is cut into
    ``workers`` partitions along the planned switch boundaries and
    driven by the chosen backend (``mp`` forks one process per
    partition; ``inproc``/``serial`` are the single-process reference
    executions of the same partitioned model).
    """
    if points is None:
        points = QUICK_POINTS if quick else SCALE_POINTS
    results: Dict[int, Dict[str, float]] = {}
    for n_providers, n_files, n_sessions, duration in points:
        if workers > 0:
            from repro.experiments.partitioned import (
                run_scale_point_partitioned,
            )
            results[n_providers] = run_scale_point_partitioned(
                n_providers, n_files, n_sessions, duration, seed=seed,
                workers=workers, backend=backend, cross_latency=cross_latency)
        else:
            results[n_providers] = run_point(
                n_providers, n_files, n_sessions, duration, seed=seed)
    return results


def report(results: Dict[int, Dict[str, float]]) -> str:
    cols = ["providers", "files", "sessions_done", "sessions_failed",
            "sim_s", "wall_s", "sim_per_wall", "events", "preload_wall_s",
            "peak_rss_mb"]
    rows = [[results[n][c] for c in cols] for n in sorted(results)]
    return format_table(
        "Scale - cluster state machinery at 100-1000 providers", cols, rows)


def checks(results: Dict[int, Dict[str, float]]) -> List[str]:
    """Shape assertions; returns a list of violated expectations."""
    bad = []
    for n, row in sorted(results.items()):
        total = row["sessions_done"] + row["sessions_failed"]
        if total == 0 or row["sessions_done"] < 0.95 * total:
            bad.append(f"{n} providers: only {row['sessions_done']}/{total} "
                       "sessions succeeded")
        if row["sim_s"] <= 0:
            bad.append(f"{n} providers: simulation did not advance")
    return bad


def main(quick: bool = False, seed: int = 0) -> str:
    results = run(quick=quick, seed=seed)
    text = report(results)
    for problem in checks(results):
        text += f"\nSHAPE VIOLATION: {problem}"
    print(text)
    return text


def _cli(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--point", type=int, default=None,
                        help="run only this provider count")
    parser.add_argument("--files", type=int, default=None)
    parser.add_argument("--sessions", type=int, default=None)
    parser.add_argument("--duration", type=float, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=0,
                        help="partition the model across N worker event "
                             "loops (0 = classic single-loop run)")
    parser.add_argument("--backend", default="mp",
                        choices=("mp", "inproc", "serial"),
                        help="parallel backend: forked processes, "
                             "round-robin in-process loops, or the serial "
                             "reference execution of the partitioned model")
    parser.add_argument("--cross-latency", type=float, default=None,
                        help="extra one-way seconds on cut edges "
                             "(default: repro.sim.parallel uplink model)")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable rows on stdout")
    add_budget_args(parser)
    args = parser.parse_args(argv)

    points = QUICK_POINTS if args.quick else SCALE_POINTS
    if args.point is not None:
        base = next((p for p in SCALE_POINTS + QUICK_POINTS
                     if p[0] == args.point),
                    (args.point, 50_000, 1_000, 8.0))
        points = [base]
    if args.files or args.sessions or args.duration:
        points = [(n, args.files or f, args.sessions or s,
                   args.duration or d) for n, f, s, d in points]

    results = run(points=points, seed=args.seed, workers=args.workers,
                  backend=args.backend, cross_latency=args.cross_latency)
    if args.json:
        for n in sorted(results):
            print(json.dumps(results[n]))
    else:
        print(report(results))

    failures = checks(results)
    for n, row in sorted(results.items()):
        failures += over_budget(args, f"{n} providers", row["wall_s"],
                                row["peak_rss_mb"])
    for problem in failures:
        print(f"SCALE BUDGET/SHAPE VIOLATION: {problem}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(_cli())
