"""Tiered deployment: a central cluster plus satellite replica tiers.

Section 6 sketches Sorrento installations that outgrow one machine
room.  This experiment models the smallest interesting shape: one
central tier (the sharded namespace plus all storage providers) and K
satellite tiers connected over high-latency, bandwidth-capped WAN
links.  Each satellite runs a full-tree namespace *mirror* fed by
scheduled bulk WAL batches from every shard (``add_namespace_mirror``),
and a sync agent that scans the mirror for freshly committed files and
pulls their data across the WAN — scheduled bulk metadata + segment
replication, not per-operation synchrony.

The WAN is part of the fault plane: the links are shaped with
``LinkDegrade`` events (extra latency, jitter, a bandwidth cap) executed
by the :class:`~repro.faults.FaultController`, so the ``wanpart``
variant composes naturally — it cuts the first satellite off with a
``Partition`` mid-run and heals it later.  Because shard servers *call*
``nsr_apply_batch`` (re-buffering on timeout) instead of
fire-and-forgetting it, the mirror converges after the heal; the sync
agent's backlog drains, and :func:`repro.faults.recovery_metrics` over
its sampled sync rate quantifies the outage.

Variants:

* ``"steady"`` — shaped WAN only: satellites must keep up with the
  central create stream (bounded backlog, every shard ships batches);
* ``"wanpart"`` — satellite 0 is partitioned at ``fail_at`` and healed
  at ``heal_at``: sync stalls, the batch shipper retries, and both the
  metadata mirror and the data backlog must converge by the end.

Runs standalone::

    python -m repro.experiments.tiered [--variant steady|wanpart]
        [--shards N] [--satellites K] [--scale S] [--duration D]
        [--seed N] [--json] [--budget-wall S] [--budget-rss-mb M]

``--json`` prints one machine-readable result dict; the ``--budget-*``
flags make the process exit non-zero when a budget is exceeded (the CI
``shard-smoke`` job).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List

from repro.cluster import ClusterSpec, NodeSpec
from repro.core import SorrentoConfig, SorrentoDeployment
from repro.core.client.handle import SorrentoError
from repro.core.params import SorrentoParams
from repro.experiments.common import (
    add_budget_args,
    format_table,
    over_budget,
    peak_rss_mb,
)
from repro.faults import (
    FaultController,
    FaultPlan,
    Heal,
    LinkDegrade,
    Partition,
    format_recovery,
    recovery_metrics,
)
from repro.network.message import RpcRemoteError, RpcTimeout
from repro.sim import gather

GB = 1 << 30
MB = 1 << 20
KB = 1 << 10

SAMPLE = 3.0

VARIANTS = ("steady", "wanpart")

#: WAN shaping applied to every central<->satellite link at t=0.
WAN_LATENCY = 0.040          # one-way extra seconds
WAN_JITTER = 0.005
WAN_BANDWIDTH = 12.5e6       # bytes/s (~100 Mbit/s)

#: Scheduled replication cadences.
SHIP_INTERVAL = 5.0          # shard -> mirror bulk metadata batches
SYNC_INTERVAL = 6.0          # satellite data-pull scan period
SYNC_FANOUT = 4              # concurrent fetches per sync cycle


def tiered_cluster(n_storage: int, n_clients: int,
                   n_satellites: int) -> ClusterSpec:
    """Central Cluster-B-like tier plus K satellite nodes.

    Satellites carry disks (the mirror's WAL needs one) but export no
    capacity, so they never join the provider ring — their only roles
    are the namespace mirror and the sync agent.
    """
    nodes = [
        NodeSpec(name=f"b{i:02d}", cpus=2, cpu_ghz=1.4, memory=4 * GB,
                 disks=("ultrastar-dk32ej",) * 3, export_capacity=176 * GB)
        for i in range(n_storage)
    ]
    nodes += [NodeSpec(name=f"bc{i:02d}", cpus=2, cpu_ghz=1.4, memory=4 * GB)
              for i in range(n_clients)]
    nodes += [NodeSpec(name=f"sat{k}", cpus=2, cpu_ghz=1.4, memory=4 * GB,
                       disks=("ultrastar-dk32ej",) * 3, export_capacity=0)
              for k in range(n_satellites)]
    return ClusterSpec("tiered", nodes)


def _build_plan(variant: str, sats: List[str], fail_at: float,
                heal_at: float) -> FaultPlan:
    """WAN shaping for every satellite link, plus the variant's faults.

    Plan times are relative to ``controller.start()``; the caller starts
    the controller *before* warm-up (the WAN exists from the first
    heartbeat) and passes ``fail_at``/``heal_at`` already offset so they
    land at the advertised measurement-relative instants.
    """
    plan = FaultPlan()
    for s in sats:
        plan.at(0.0, LinkDegrade(src=s, dst="*", extra_latency=WAN_LATENCY,
                                 jitter=WAN_JITTER,
                                 bandwidth_cap=WAN_BANDWIDTH))
        plan.at(0.0, LinkDegrade(src="*", dst=s, extra_latency=WAN_LATENCY,
                                 jitter=WAN_JITTER,
                                 bandwidth_cap=WAN_BANDWIDTH))
    if variant == "wanpart":
        plan.at(fail_at, Partition((sats[0],)))
        plan.at(heal_at, Heal())
    elif variant != "steady":
        raise ValueError(f"unknown variant {variant!r} (pick from {VARIANTS})")
    return plan


def _central_writer(client, dirpath: str, file_size: int, pause: float,
                    created: List[tuple], progress: List[tuple],
                    deadline: float):
    """Create-write-commit small files under one top-level directory.

    One top-level directory per writer: the shard map assigns whole
    top-level subtrees, so several writers spread the create stream
    across every namespace shard.
    """
    sim = client.sim
    yield from client.mkdir(dirpath)
    i = 0
    while sim.now < deadline:
        path = f"{dirpath}/f{i:04d}"
        fh = yield from client.open(path, "w", create=True)
        yield from client.write(fh, 0, file_size)
        yield from client.close(fh)
        created.append((sim.now, path))
        progress.append((sim.now, file_size))
        i += 1
        yield sim.timeout(pause)


def _fetch(client, path: str, progress: List[tuple], seen: Dict[str, int],
           version: int):
    """Pull one file's data across the WAN; tolerate mid-flight faults."""
    sim = client.sim
    try:
        fh = yield from client.open(path, "r")
        size = fh.size
        if size:
            yield from client.read(fh, 0, size)
        yield from client.close(fh)
    except (SorrentoError, RpcTimeout, RpcRemoteError):
        return  # partitioned or racing a commit: retry next scan
    seen[path] = version
    progress.append((sim.now, size))


def _satellite_sync(dep, sat: str, client, seen: Dict[str, int],
                    progress: List[tuple], stop_at: float):
    """The satellite's sync agent.

    Discovery is local and free: it scans the mirror's own DB (state
    inspection of the last bulk batch applied) for committed files it
    has not fetched yet, then pulls their data through a regular client
    session over the shaped WAN — ``SYNC_FANOUT`` transfers at a time.
    """
    sim = dep.sim
    mirror = dep.ns_mirrors[sat]
    while sim.now < stop_at:
        yield sim.timeout(SYNC_INTERVAL)
        todo = []
        for key, entry in list(mirror.db.items()):
            if not (isinstance(key, str) and key.startswith("f:")):
                continue
            if entry.version < 1:
                continue
            path = entry.path
            if seen.get(path, 0) < entry.version:
                todo.append((path, entry.version))
        for i in range(0, len(todo), SYNC_FANOUT):
            if sim.now >= stop_at:
                break
            chunk = todo[i:i + SYNC_FANOUT]
            yield from gather(sim, [
                _fetch(client, path, progress, seen, version)
                for path, version in chunk])


def _lag_sampler(dep, sats: List[str], series: Dict[str, List[tuple]],
                 stop_at: float):
    """Sample each mirror's unshipped-mutation backlog every SAMPLE s."""
    sources = dep.namespace_servers()
    while dep.sim.now < stop_at:
        yield dep.sim.timeout(SAMPLE)
        for s in sats:
            lag = sum(srv.replication_lag().get(s, 0) for srv in sources)
            series[s].append((dep.sim.now, lag))


def _bucket(progress: List[tuple], t0: float, duration: float,
            scale: float = 1.0) -> List[float]:
    n = int(duration / SAMPLE)
    out = [0.0] * n
    for t, v in progress:
        idx = int((t - t0) / SAMPLE)
        if 0 <= idx < n:
            out[idx] += v * scale
    return out


def run(scale: float = 1.0, duration: float = 90.0, n_shards: int = 2,
        n_satellites: int = 2, fail_at: float = 30.0, heal_at: float = 51.0,
        seed: int = 0, variant: str = "steady") -> Dict:
    """Drive one tiered run; returns sampled series plus totals."""
    n_storage, n_writers = 6, 4
    file_size = max(64 * KB, int(256 * KB * scale))
    pause = 1.2
    sats = [f"sat{k}" for k in range(n_satellites)]

    t_wall = time.perf_counter()
    warm = 8.0
    params = SorrentoParams(default_degree=1)
    dep = SorrentoDeployment(
        tiered_cluster(n_storage, n_writers + 1, n_satellites),
        SorrentoConfig(params=params, seed=seed, n_providers=n_storage,
                       namespace_shards=n_shards))
    for s in sats:
        dep.add_namespace_mirror(s, interval=SHIP_INTERVAL)

    # The WAN exists from t=0: shaping is fault-plane state, so the
    # controller owns it (and the wanpart variant's cut rides the same
    # plan).  Start before warm-up so even heartbeats feel the latency;
    # the variant's fault instants are offset past the warm-up so they
    # hit at t0 + fail_at on the measured clock.
    controller = FaultController(
        dep, _build_plan(variant, sats, fail_at + warm, heal_at + warm))
    controller.start()
    dep.warm_up(warm)
    t0 = dep.sim.now

    created: List[tuple] = []
    central_progress: List[tuple] = []
    writers = [dep.client_on(f"bc{i:02d}") for i in range(n_writers)]
    procs = [dep.sim.process(_central_writer(
        c, f"/w{i}", file_size, pause, created, central_progress,
        t0 + duration)) for i, c in enumerate(writers)]

    sync_progress: Dict[str, List[tuple]] = {s: [] for s in sats}
    seen: Dict[str, Dict[str, int]] = {s: {} for s in sats}
    sat_clients = {s: dep.client_on(s) for s in sats}
    for s in sats:
        procs.append(dep.sim.process(_satellite_sync(
            dep, s, sat_clients[s], seen[s], sync_progress[s],
            t0 + duration)))
    lag_series: Dict[str, List[tuple]] = {s: [] for s in sats}
    dep.sim.process(_lag_sampler(dep, sats, lag_series, t0 + duration))

    dep.sim.run(until=t0 + duration)

    times = [(i + 1) * SAMPLE for i in range(int(duration / SAMPLE))]
    central_rate = _bucket(central_progress, t0, duration, 1.0 / MB / SAMPLE)
    sources = dep.namespace_servers()
    central_entries = sum(
        1 for srv in sources for key, _ in srv.db.items()
        if isinstance(key, str) and key.startswith("f:"))

    # A file is only *owed* to a satellite once a metadata batch and a
    # sync scan have plausibly run since its commit.
    grace = SHIP_INTERVAL + 2 * SYNC_INTERVAL
    eligible = sum(1 for t, _ in created if t <= t0 + duration - grace)
    sat_rows = {}
    for s in sats:
        mirror_entries = sum(
            1 for key, _ in dep.ns_mirrors[s].db.items()
            if isinstance(key, str) and key.startswith("f:"))
        sat_rows[s] = {
            "files_synced": len(seen[s]),
            "bytes_synced": sum(v for _, v in sync_progress[s]),
            "sync_rate": _bucket(sync_progress[s], t0, duration,
                                 1.0 / MB / SAMPLE),
            "mirror_entries": mirror_entries,
            "lag_final": lag_series[s][-1][1] if lag_series[s] else 0,
            "lag_max": max((v for _, v in lag_series[s]), default=0),
            # Geo-aware reads: the satellite's read-only metadata ops
            # served by its own mirror vs bounced to the central tier.
            "mirror_hits": sat_clients[s].stats["mirror_hits"],
            "mirror_fallbacks": sat_clients[s].stats["mirror_fallbacks"],
        }

    res = {
        "variant": variant, "shards": n_shards, "satellites": sats,
        "t": times, "central_rate": central_rate,
        "files_created": len(created), "eligible": eligible,
        "central_entries": central_entries,
        "shipped_batches": sum(srv.shipped_batches for srv in sources),
        "shipped_mb": round(sum(srv.shipped_bytes for srv in sources) / MB, 3),
        "sats": sat_rows,
        "fail_at": fail_at, "heal_at": heal_at,
        "wall_s": round(time.perf_counter() - t_wall, 3),
        "fault_timeline": [(t - t0, kind, repr(ev))
                           for t, kind, ev in controller.timeline],
    }
    if variant == "wanpart":
        res["recovery"] = recovery_metrics(
            times, sat_rows[sats[0]]["sync_rate"], fail_at,
            recovered_frac=0.5)
    return res


def report(res: Dict) -> str:
    header = (f"Tiered ({res['variant']}) - {res['shards']}-shard central "
              f"tier, {len(res['satellites'])} satellite(s) over a shaped "
              f"WAN")
    rows = [[t, c] + [res["sats"][s]["sync_rate"][i]
                      for s in res["satellites"]]
            for i, (t, c) in enumerate(zip(res["t"], res["central_rate"]))]
    table = format_table(header,
                         ["t (s)", "central MB/s"]
                         + [f"{s} MB/s" for s in res["satellites"]], rows)
    table += (f"\nfiles created: {res['files_created']} "
              f"(namespace entries: {res['central_entries']}); "
              f"metadata batches shipped: {res['shipped_batches']} "
              f"({res['shipped_mb']} MB)")
    for s in res["satellites"]:
        row = res["sats"][s]
        table += (f"\n{s}: synced {row['files_synced']} files / "
                  f"{row['bytes_synced'] / MB:.1f} MB, mirror holds "
                  f"{row['mirror_entries']} entries, ship lag "
                  f"max {row['lag_max']} final {row['lag_final']}, "
                  f"metadata reads {row['mirror_hits']} local / "
                  f"{row['mirror_fallbacks']} WAN")
    if "recovery" in res:
        table += (f"\nWAN partition of {res['satellites'][0]} at "
                  f"t={res['fail_at']:g}s, healed t={res['heal_at']:g}s")
        table += f"\nrecovery: {format_recovery(res['recovery'])}"
    table += "\nfault timeline:"
    for t, kind, ev in res["fault_timeline"]:
        table += f"\n  t={t:8.3f}s  {kind:<13} {ev}"
    return table


def checks(res: Dict) -> list:
    bad = []
    if res["files_created"] < 10:
        bad.append("central tier created almost no files")
    if res["shipped_batches"] < len(res["satellites"]):
        bad.append("scheduled metadata batches did not ship")
    partitioned = ((res["satellites"][0],)
                   if res["variant"] == "wanpart" else ())
    for s in res["satellites"]:
        row = res["sats"][s]
        if row["mirror_entries"] < 0.8 * res["central_entries"]:
            bad.append(f"{s}: mirror missed metadata "
                       f"({row['mirror_entries']}/{res['central_entries']} "
                       "entries)")
        floor = (0.6 if s in partitioned else 0.8) * res["eligible"]
        if row["files_synced"] < floor:
            bad.append(f"{s}: data sync fell behind "
                       f"({row['files_synced']}/{res['eligible']} eligible)")
        if row["files_synced"] and row["mirror_hits"] == 0:
            bad.append(f"{s}: satellite reads bypassed its local "
                       "namespace mirror")
        if res["variant"] == "steady" and row["mirror_fallbacks"] > 0:
            # The sync agent only opens paths its mirror already holds,
            # so in steady state *zero* metadata ops may cross the WAN.
            bad.append(f"{s}: {row['mirror_fallbacks']} WAN metadata "
                       "roundtrips in steady state")
    if res["variant"] == "wanpart":
        s0 = res["satellites"][0]
        t, rate = res["t"], res["sats"][s0]["sync_rate"]
        dark = sum(r for x, r in zip(t, rate)
                   if res["fail_at"] < x <= res["heal_at"])
        bright = sum(r for x, r in zip(t, rate)
                     if res["heal_at"] < x
                     <= res["heal_at"] + (res["heal_at"] - res["fail_at"]))
        if bright <= dark:
            bad.append("no catch-up burst after the WAN heal")
        if res["sats"][s0]["lag_final"] > res["sats"][s0]["lag_max"] / 2 \
                and res["sats"][s0]["lag_final"] > 10:
            bad.append("metadata ship backlog did not drain after the heal")
    return bad


def main(scale: float = 1.0, duration: float = 90.0,
         variant: str = "steady", n_shards: int = 2) -> str:
    res = run(scale=scale, duration=duration, variant=variant,
              n_shards=n_shards)
    text = report(res)
    for problem in checks(res):
        text += f"\nSHAPE VIOLATION: {problem}"
    print(text)
    return text


def _cli(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--variant", default="steady", choices=VARIANTS)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--satellites", type=int, default=2)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--duration", type=float, default=90.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", action="store_true",
                        help="machine-readable result on stdout")
    add_budget_args(parser)
    args = parser.parse_args(argv)

    res = run(scale=args.scale, duration=args.duration,
              n_shards=args.shards, n_satellites=args.satellites,
              seed=args.seed, variant=args.variant)
    if args.json:
        print(json.dumps(res))
    else:
        print(report(res))

    failures = checks(res) + over_budget(args, "", res["wall_s"],
                                         round(peak_rss_mb()))
    for problem in failures:
        print(f"TIERED BUDGET/SHAPE VIOLATION: {problem}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(_cli())
