"""Partitioned experiment drivers for the conservative-parallel kernel.

This module is the bridge between the window engine in
:mod:`repro.sim.parallel` and the repo's experiments: it packages the
scale suite and the reduced Figure-10 run as *partition programs*
— builders that construct one partition's share of the simulated
cluster plus a phase list the coordinator drives under conservative
windows.

The same builder serves every backend.  With ``local_pid=None`` it
builds the whole model in one Simulator: the serial reference execution
of the *partitioned* model, against which the ``inproc`` and ``mp``
backends must be bit-identical (same seed, same partition map).  Every
builder therefore follows two rules:

* **Construct everything everywhere.**  Each worker builds the full
  deployment — remote hosts as dormant shells — so construction order
  and every named RNG stream match the serial build exactly.  A shell
  joins the multicast groups its host would join, so a group send
  reaches the same hosts on every backend.
* **Draw everything everywhere.**  Workload generators consume their
  RNG sequences in full on every worker and only *spawn* processes for
  hosts the worker owns, so a draw never shifts between backends.

Builders live at module top level because the ``mp`` backend pickles
``(builder, args)`` into forked workers.
"""

from __future__ import annotations

import hashlib
import time
from typing import Dict, Optional

from repro.cluster import ClusterSpec
from repro.core import SorrentoConfig, SorrentoDeployment
from repro.core.params import SorrentoParams
from repro.experiments.common import cluster_a_like, peak_rss_mb
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
from repro.sim.parallel import (
    DEFAULT_CROSS_LATENCY,
    PartitionMap,
    plan_partitions,
    run_partitioned,
)
from repro.workloads.smallfile import session_loop


def partition_for_spec(spec: ClusterSpec, n_partitions: int,
                       cross_latency: float = DEFAULT_CROSS_LATENCY,
                       ) -> PartitionMap:
    """The planned cut for a cluster spec: storage chunked in spec order
    (switch boundaries), compute stubs spread round-robin."""
    storage = [n.name for n in spec.storage_nodes]
    compute = [n.name for n in spec.compute_nodes]
    return plan_partitions(storage, compute, n_partitions,
                           cross_latency=cross_latency)


def _digest(obj) -> str:
    """Short stable digest of a picklable result (repr is exact for the
    ints/floats/strs these rows contain)."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


class _PartitionProgram:
    """The duck type ``run_partitioned`` drives: a deployment plus the
    phase list and a picklable result collector."""

    def __init__(self, dep: SorrentoDeployment, phases, collect):
        self.dep = dep
        self.sim = dep.sim
        self.transit = dep.transit
        self._phases = phases
        self._collect = collect

    def phases(self):
        return self._phases

    def result(self):
        return self._collect(self)


def _quiet(gen):
    """Swallow workload exceptions, like ``dep.run``'s callers do."""
    try:
        yield from gen
    except Exception:
        pass


# ------------------------------------------------------------ scale suite
def _scale_session(client, idx, path, delay, counters, rows):
    """One scale-suite session, recording its completion for the
    serial-vs-parallel equivalence digest."""
    yield client.sim.timeout(delay)
    try:
        fh = yield from client.open(path, "r")
        yield from client.read(fh, 0, READ_SIZE)
        yield from client.close(fh)
        counters["done"] += 1
        rows.append((idx, client.sim.now, 1))
    except Exception:
        counters["failed"] += 1
        rows.append((idx, client.sim.now, 0))


def build_scale_program(point, seed, pmap,
                        local_pid: Optional[int] = None) -> _PartitionProgram:
    """One partition's share of a scale-suite point (top-level for mp)."""
    n_providers, n_files, n_sessions, duration = point
    dep = SorrentoDeployment(scale_spec(n_providers), SorrentoConfig(
        params=scale_params(n_providers), seed=seed,
        partition=pmap, local_partition=local_pid))
    fpt = files_per_tenant(n_files)
    counters = {"done": 0, "failed": 0}
    rows = []

    def _preload(prog):
        # Every worker runs the full preload: placement math and RNG
        # draws are global, state is planted only on local providers.
        # The bulk fast path draws a fixed count per file from one
        # stream, so every worker stays aligned by construction.
        prog.dep.preload_files(
            ((_tenant_file(tenant, i), FILE_SIZE)
             for tenant in range(N_TENANTS) for i in range(fpt)),
            degree=1)

    def _sessions(prog):
        d = prog.dep
        rng = d.rngs.py("scale-sessions")
        clients = d.clients_on_compute(N_CLIENT_STUBS)
        procs = []
        for i, path, arrival in draw_sessions(rng, n_sessions, duration, fpt):
            # The draws are made for every session; only the ownership
            # filter is local.
            client = clients[i % N_CLIENT_STUBS]
            if client.node.dormant:
                continue
            procs.append(d.sim.process(_scale_session(
                client, i, path, arrival, counters, rows)))
        return procs

    def _collect(prog):
        return {"done": counters["done"], "failed": counters["failed"],
                "rows": sorted(rows)}

    phases = [("until", None), ("call", _preload), ("procs", _sessions)]
    return _PartitionProgram(dep, phases, _collect)


def run_scale_point_partitioned(n_providers: int, n_files: int,
                                n_sessions: int, duration: float,
                                seed: int = 0, workers: int = 2,
                                backend: str = "mp",
                                cross_latency: Optional[float] = None,
                                ) -> Dict[str, object]:
    """One scale point under the partitioned kernel; returns a metrics
    row shaped like :func:`repro.experiments.scale.run_point`'s, plus
    the parallel-run diagnostics (windows, barrier wall, per-worker
    busy wall and event counts, shipped records, equivalence digest)."""
    t_build = time.perf_counter()
    params = scale_params(n_providers)
    spec = scale_spec(n_providers)
    xlat = DEFAULT_CROSS_LATENCY if cross_latency is None else cross_latency
    pmap = partition_for_spec(spec, workers, cross_latency=xlat)
    warm = params.join_refresh_delay_max + 1.0
    phase_meta = [("until", warm), ("call", None), ("procs", None)]
    point = (n_providers, n_files, n_sessions, duration)
    out = run_partitioned(
        build_scale_program, (point, seed, pmap), pmap,
        phase_meta, backend=backend, fabric_latency=spec.latency)
    stats = out["stats"]
    meas = stats.phase_log[2]
    sim_elapsed = meas["t_end"] - meas["t_start"]
    wall = max(meas["wall_s"], 1e-9)
    events = sum(stats.events)
    rows = sorted(r for res in out["results"] for r in res["rows"])
    return {
        "providers": n_providers,
        "files": N_TENANTS * files_per_tenant(n_files),
        "sessions_done": sum(r["done"] for r in out["results"]),
        "sessions_failed": sum(r["failed"] for r in out["results"]),
        "sim_s": round(sim_elapsed, 3),
        "wall_s": round(wall, 3),
        "sim_per_wall": round(sim_elapsed / wall, 3),
        "events": events,
        "events_per_s": round(events / wall, 1),
        "preload_wall_s": stats.phase_log[1]["wall_s"],
        "total_wall_s": round(time.perf_counter() - t_build, 3),
        "peak_rss_mb": round(peak_rss_mb(tree=True), 1),
        "workers": pmap.n_partitions,
        "backend": backend,
        "lookahead_us": round(pmap.lookahead(spec.latency) * 1e6, 1),
        "windows": stats.windows,
        "grants": stats.grants,
        "windows_per_grant": stats.windows_per_grant,
        "records_shipped": stats.records_shipped,
        "barrier_wall_s": round(stats.barrier_wall_s, 3),
        "busy_wall_s": [round(b, 3) for b in stats.busy_wall_s],
        "worker_events": stats.events,
        "digest": _digest(rows),
    }


# ------------------------------------------------- reduced Figure 10 macro
def build_fig10_program(n_clients, duration, n_storage, seed, pmap,
                        local_pid: Optional[int] = None) -> _PartitionProgram:
    """One partition's share of the reduced Figure-10 run."""
    params = SorrentoParams(default_degree=2)
    spec = cluster_a_like(n_storage=n_storage, n_clients=n_clients)
    dep = SorrentoDeployment(spec, SorrentoConfig(
        params=params, seed=seed, n_providers=n_storage,
        partition=pmap, local_partition=local_pid))
    clients = dep.clients_on_compute(n_clients)
    tags = {f"c{i}": [0] for i in range(n_clients)}

    def _mkdir(prog):
        c0 = clients[0]
        if c0.node.dormant:
            return []
        return [prog.sim.process(_quiet(c0.mkdir("/tput")))]

    def _sessions(prog):
        procs = []
        for i, c in enumerate(clients):
            if c.node.dormant:
                continue
            procs.append(prog.sim.process(
                session_loop(c, f"c{i}", tags[f"c{i}"], duration)))
        return procs

    def _collect(prog):
        return {"tags": {t: n[0] for t, n in tags.items() if n[0]},
                "sessions": sum(n[0] for n in tags.values())}

    phases = [("until", None), ("procs", _mkdir), ("procs", _sessions)]
    return _PartitionProgram(dep, phases, _collect)


def run_fig10_partitioned(n_clients: int = 6, duration: float = 8.0,
                          n_storage: int = 8, seed: int = 0,
                          workers: int = 2, backend: str = "mp",
                          cross_latency: Optional[float] = None,
                          ) -> Dict[str, object]:
    """The reduced Figure-10 run on the partitioned kernel; returns the
    session counts and their equivalence digest (pinned across backends
    by ``tests/test_parallel.py``)."""
    spec = cluster_a_like(n_storage=n_storage, n_clients=n_clients)
    xlat = DEFAULT_CROSS_LATENCY if cross_latency is None else cross_latency
    pmap = partition_for_spec(spec, workers, cross_latency=xlat)
    phase_meta = [("until", 8.0), ("procs", None), ("procs", None)]
    out = run_partitioned(
        build_fig10_program,
        (n_clients, duration, n_storage, seed, pmap), pmap,
        phase_meta, backend=backend, fabric_latency=spec.latency)
    stats = out["stats"]
    tags: Dict[str, int] = {}
    for r in out["results"]:
        tags.update(r["tags"])
    sessions = sum(r["sessions"] for r in out["results"])
    return {
        "sessions": sessions,
        "sessions_per_sim_s": round(sessions / duration, 1),
        "workers": pmap.n_partitions,
        "backend": backend,
        "windows": stats.windows,
        "records_shipped": stats.records_shipped,
        "digest": _digest(sorted(tags.items())),
        "tags": dict(sorted(tags.items())),
    }
