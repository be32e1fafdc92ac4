"""Shared experiment plumbing: deployment builders and report tables."""

from __future__ import annotations

import gc
import os
import time
from contextlib import contextmanager
from typing import List, Optional, Sequence

from repro.baselines import NFSDeployment, PVFSDeployment
from repro.cluster import ClusterSpec, NodeSpec
from repro.core import SorrentoConfig, SorrentoDeployment
from repro.core.params import SorrentoParams

GB = 1 << 30
MB = 1 << 20


def cluster_a_like(n_storage: int = 10, n_clients: int = 17,
                   capacity: int = 21 * GB) -> ClusterSpec:
    """A reduced Cluster A: P-II 400 MHz duals, one SCSI disk per storage
    node (2 Cheetah + the rest Barracuda, as in Figure 8)."""
    nodes = []
    for i in range(n_storage):
        disk = "cheetah-st373405" if i < 2 else "barracuda-st336737"
        nodes.append(NodeSpec(name=f"a{i:02d}", cpus=2, cpu_ghz=0.4,
                              disks=(disk,), export_capacity=capacity))
    nodes += [NodeSpec(name=f"ac{i:02d}", cpus=2, cpu_ghz=0.4)
              for i in range(n_clients)]
    return ClusterSpec("cluster-a-like", nodes)


def cluster_b_like(n_storage: int = 10, n_clients: int = 17,
                   capacity: int = 176 * GB) -> ClusterSpec:
    """A reduced Cluster B: P-III 1.4 GHz duals, RAID-0 of three
    Ultrastars per storage node."""
    nodes = [
        NodeSpec(name=f"b{i:02d}", cpus=2, cpu_ghz=1.4, memory=4 * GB,
                 disks=("ultrastar-dk32ej",) * 3, export_capacity=capacity)
        for i in range(n_storage)
    ]
    nodes += [NodeSpec(name=f"bc{i:02d}", cpus=2, cpu_ghz=1.4, memory=4 * GB)
              for i in range(n_clients)]
    return ClusterSpec("cluster-b-like", nodes)


def sorrento_on(spec: ClusterSpec, n_providers: int, degree: int = 1,
                seed: int = 0, warm: float = 8.0,
                **param_overrides) -> SorrentoDeployment:
    """Sorrento-(n, r) on a cluster spec."""
    params = SorrentoParams(default_degree=degree, **param_overrides)
    dep = SorrentoDeployment(
        spec, SorrentoConfig(params=params, seed=seed, n_providers=n_providers)
    )
    dep.warm_up(warm)
    return dep


def pvfs_on(spec: ClusterSpec, n_iods: int, seed: int = 0) -> PVFSDeployment:
    """PVFS-n on a cluster spec (mgr takes one extra storage node)."""
    dep = PVFSDeployment(spec, n_iods=n_iods, seed=seed)
    dep.warm_up()
    return dep


def nfs_on(spec: ClusterSpec, seed: int = 0) -> NFSDeployment:
    dep = NFSDeployment(spec, seed=seed)
    dep.warm_up()
    return dep


def run_until_done(sim, procs, max_time: float = 1e7) -> None:
    """Advance the sim until every process finishes (the kernel's fused
    ``run_until`` loop), failing loudly on deadlock or past ``max_time``."""
    sim.run_until(procs, max_time)


@contextmanager
def collector_time():
    """Time the cyclic collector over the block (``gc.callbacks``);
    yields the dict it fills in (full = generation 2)."""
    seen = {"gc_wall_s": 0.0, "gc_collections": 0, "gc_full": 0}
    t0 = 0.0

    def _on_gc(phase, info):
        nonlocal t0
        if phase == "start":
            t0 = time.perf_counter()
        else:
            seen["gc_wall_s"] += time.perf_counter() - t0
            seen["gc_collections"] += 1
            seen["gc_full"] += info["generation"] == 2

    gc.callbacks.append(_on_gc)
    try:
        yield seen
    finally:
        gc.callbacks.remove(_on_gc)


# --------------------------------------------------- CLI budgets (CI gates)
def peak_rss_mb(tree: bool = False) -> float:
    """Peak resident set in MB of this process — with ``tree``, of its
    exited children (forked ``mp`` workers) too; 0.0 if unsupported.
    ``ru_maxrss`` never falls, so run one point per process for a
    per-point number."""
    try:
        import resource
    except ImportError:  # non-POSIX
        return 0.0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tree:
        peak = max(peak,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def rss_bytes() -> int:
    """This process's resident set now (``/proc/self/statm``; 0 where
    there is none): the difference across a build step is what it added."""
    try:
        with open("/proc/self/statm") as f:
            return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError):
        return 0


def add_budget_args(parser) -> None:
    """The ``--budget-*`` flags the experiment CLIs share (CI smoke jobs)."""
    parser.add_argument("--budget-wall", type=float, default=None,
                        help="fail if wall_s exceeds this")
    parser.add_argument("--budget-rss-mb", type=float, default=None,
                        help="fail if peak RSS exceeds this")


def over_budget(args, label: str, wall_s: float, rss_mb: float) -> List[str]:
    """One message per set-and-exceeded budget; ``label`` names the row
    (empty for a single-row run)."""
    prefix = f"{label}: " if label else ""
    bad = []
    if args.budget_wall is not None and wall_s > args.budget_wall:
        bad.append(f"{prefix}wall {wall_s}s over budget {args.budget_wall}s")
    if args.budget_rss_mb is not None and rss_mb > args.budget_rss_mb:
        bad.append(f"{prefix}peak RSS {rss_mb}MB over budget "
                   f"{args.budget_rss_mb}MB")
    return bad


# ----------------------------------------------------------------- report
def format_table(title: str, headers: Sequence[str],
                 rows: List[Sequence], widths: Optional[List[int]] = None) -> str:
    """Fixed-width text table in the style of the paper's figures."""
    cols = len(headers)
    if widths is None:
        widths = []
        for c in range(cols):
            cells = [str(headers[c])] + [_fmt(r[c]) for r in rows]
            widths.append(max(len(x) for x in cells) + 2)
    out = [title]
    out.append("".join(str(h).rjust(w) for h, w in zip(headers, widths)))
    out.append("-" * sum(widths))
    for row in rows:
        out.append("".join(_fmt(v).rjust(w) for v, w in zip(row, widths)))
    return "\n".join(out)


def _fmt(v) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 100:
            return f"{v:.0f}"
        if abs(v) >= 10:
            return f"{v:.1f}"
        return f"{v:.2f}"
    return str(v)
