"""Cluster inspection: the administrator's view of a running volume.

All methods read live deployment state (no simulated I/O) — this is the
offline diagnosis path, equivalent to an admin tool querying daemons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple


@dataclass
class ReplicaReport:
    """Replication-health summary for one volume."""

    total_segments: int = 0
    healthy: int = 0
    under_replicated: List[Tuple[int, int, int]] = field(default_factory=list)
    #   (segid, have, want)
    over_replicated: List[Tuple[int, int, int]] = field(default_factory=list)
    version_divergent: List[Tuple[int, List[int]]] = field(default_factory=list)
    #   (segid, distinct versions held)

    @property
    def ok(self) -> bool:
        return not (self.under_replicated or self.version_divergent)


@dataclass
class BalanceReport:
    """Storage/load balance across providers."""

    storage_utilization: Dict[str, float] = field(default_factory=dict)
    io_wait: Dict[str, float] = field(default_factory=dict)
    unevenness_ratio: float = 0.0
    mean_utilization: float = 0.0


class ClusterInspector:
    """Read-only diagnostics over a :class:`SorrentoDeployment`."""

    def __init__(self, deployment):
        self.dep = deployment

    # ------------------------------------------------------------ replicas
    def replica_map(self) -> Dict[int, Dict[str, int]]:
        """segid -> {hostid: latest committed version held}."""
        out: Dict[int, Dict[str, int]] = {}
        for host, provider in self.dep.providers.items():
            if not provider.node.alive:
                continue
            for seg in provider.store.committed_segments():
                out.setdefault(seg.segid, {})[host] = seg.version
        return out

    def segment_degrees(self) -> Dict[int, int]:
        """segid -> desired replication degree (max any holder claims)."""
        out: Dict[int, int] = {}
        for provider in self.dep.providers.values():
            if not provider.node.alive:
                continue
            for seg in provider.store.committed_segments():
                out[seg.segid] = max(out.get(seg.segid, 0),
                                     seg.replication_degree)
        return out

    def replica_report(self) -> ReplicaReport:
        """Audit replication degree and version convergence."""
        report = ReplicaReport()
        degrees = self.segment_degrees()
        for segid, holders in self.replica_map().items():
            report.total_segments += 1
            want = degrees.get(segid, 1)
            versions = sorted(set(holders.values()))
            if len(versions) > 1:
                report.version_divergent.append((segid, versions))
            elif len(holders) < want:
                report.under_replicated.append((segid, len(holders), want))
            elif len(holders) > want:
                report.over_replicated.append((segid, len(holders), want))
            else:
                report.healthy += 1
        return report

    # ------------------------------------------------------------ orphans
    def file_entries(self):
        """``(path, entry)`` for every file in the namespace, across
        all shards (mirrors are excluded — they are replicas, not
        truth)."""
        for server in self.dep.namespace_servers():
            for key, entry in server.db.items(low="f:", high="f;"):
                yield key[2:], entry

    def referenced_segments(self) -> Set[int]:
        """Every SegID reachable from the namespace (index + data)."""
        refs: Set[int] = set()
        for _path, entry in self.file_entries():
            fileid = entry.fileid
            refs.add(fileid)
            meta = self._index_meta(fileid)
            if meta and meta.get("layout") is not None:
                refs.update(r.segid for r in meta["layout"].segments)
        return refs

    def _index_meta(self, fileid: int) -> Optional[dict]:
        best = None
        for provider in self.dep.providers.values():
            if not provider.node.alive:
                continue
            seg = provider.store.latest_committed(fileid)
            if seg is not None and seg.meta is not None:
                if best is None or seg.version > best[0]:
                    best = (seg.version, seg.meta)
        return best[1] if best else None

    def orphaned_segments(self) -> List[int]:
        """Committed segments no live file references (leak candidates;
        uncommitted shadows are excluded — TTLs own those)."""
        refs = self.referenced_segments()
        return sorted(segid for segid in self.replica_map() if segid not in refs)

    # ---------------------------------------------------- location tables
    def location_audit(self) -> Dict[str, List[int]]:
        """Compare home-host location tables against reality.

        Returns {"missing": [...], "ghost": [...]}: segments whose home
        host doesn't know a live owner, and table entries claiming owners
        that hold nothing.  Both self-heal (refresh/purge); persistent
        entries indicate a protocol bug.
        """
        missing: List[int] = []
        ghost: List[int] = []
        actual = self.replica_map()
        members = sorted(h for h, p in self.dep.providers.items()
                         if p.node.alive)
        if not members:
            return {"missing": sorted(actual), "ghost": []}
        ring = next(iter(self.dep.providers.values())).owner.ring
        for segid, holders in actual.items():
            home = ring.home_host(segid, members)
            table = self.dep.providers[home].home.table
            known = {h for h, _ in table.lookup(segid)}
            if not (known & set(holders)):
                missing.append(segid)
        for host, provider in self.dep.providers.items():
            if not provider.node.alive:
                continue
            table = provider.home.table
            for segid in table.segids():
                for owner, _v in table.lookup(segid):
                    holder = self.dep.providers.get(owner)
                    if holder is None or not holder.node.alive \
                            or holder.store.latest_committed(segid) is None:
                        ghost.append(segid)
                        break
        return {"missing": sorted(missing), "ghost": sorted(set(ghost))}

    # ------------------------------------------------------------- balance
    def balance_report(self) -> BalanceReport:
        report = BalanceReport()
        utils = []
        for host, provider in self.dep.providers.items():
            if not provider.node.alive:
                continue
            u = provider.node.storage_utilization
            report.storage_utilization[host] = u
            report.io_wait[host] = provider.node.io_wait
            utils.append(u)
        if utils:
            report.mean_utilization = sum(utils) / len(utils)
            lo = min(utils)
            report.unevenness_ratio = (max(utils) / lo) if lo > 0 else float("inf")
        return report

    # --------------------------------------------------------------- RPC
    def runtime_report(self, scope: Optional[str] = None) -> str:
        """Per-service RPC counters from the deployment's runtime layer.

        Empty string when the deployment predates the metrics registry
        (or was built without one).
        """
        registry = getattr(self.dep, "metrics", None)
        if registry is None:
            return ""
        return registry.report(scope)

    def busiest_services(self, scope: str = "client",
                         top: int = 5) -> List[Tuple[str, int]]:
        """The most-called services under a scope: (service, calls+oneways)."""
        registry = getattr(self.dep, "metrics", None)
        if registry is None:
            return []
        totals = [(service, st.calls + st.oneways)
                  for (_sc, service), st in registry.items(scope)]
        return sorted(totals, key=lambda kv: (-kv[1], kv[0]))[:top]

    def cache_report(self) -> Dict[str, int]:
        """Client-cache effectiveness, aggregated across every stub.

        Counts come from the per-client ``stats`` dicts (the registry's
        "cache" scope holds the same numbers when a registry is wired).
        """
        keys = ("loc_hits", "loc_misses", "loc_stale",
                "meta_hits", "meta_misses", "vec_rpcs", "vec_pieces")
        totals = dict.fromkeys(keys, 0)
        for client in getattr(self.dep, "clients", []):
            stats = getattr(client, "stats", None)
            if not stats:
                continue
            for key in keys:
                totals[key] += stats.get(key, 0)
        return totals

    def disk_report(self) -> Dict[str, int]:
        """Storage-engine effectiveness, aggregated across providers.

        All zeros when no provider runs an engine (``cache_bytes=0``) —
        the raw-disk configuration has nothing to report.
        """
        keys = ("cache_hits", "cache_misses", "writes_absorbed",
                "writes_through", "readahead_pages", "meta_ops",
                "coalesced", "flush_batches", "flush_pages", "flush_errors",
                "sync_flushes", "evicted", "evicted_dirty", "queue_peak",
                "dirty_pages", "cached_pages")
        totals = dict.fromkeys(keys, 0)
        for provider in self.dep.providers.values():
            engine = getattr(provider.node.fs, "engine", None)
            if engine is None:
                continue
            for key, val in engine.stats.items():
                if key == "queue_peak":
                    totals[key] = max(totals[key], val)
                else:
                    totals[key] = totals.get(key, 0) + val
            totals["dirty_pages"] += engine.dirty_pages
            totals["cached_pages"] += engine.cached_pages
        return totals

    # ----------------------------------------------------------- namespace
    def namespace_report(self) -> Dict[str, object]:
        """The routed-metadata plane: per-shard load, standby shipping
        and mirrors."""
        dep = self.dep
        report: Dict[str, object] = {"shards": {}, "mirrors": {}}
        for srv in sorted(dep.namespace_servers(),
                          key=lambda s: s.shard_name):
            report["shards"][srv.shard_name] = {
                "entries": len(srv.db),
                "ops_served": srv.ops_served,
                "standbys": [link.hostid for link in srv.standbys],
                "ship_lag": srv.replication_lag(),
                "shipped_batches": srv.shipped_batches,
            }
        for host, mirror in dep.ns_mirrors.items():
            report["mirrors"][host] = {
                "entries": len(mirror.db),
                "applied_seq": mirror.applied_seq,
            }
        return report

    # ---------------------------------------------------------- partitions
    def partition_report(self) -> Dict[str, object]:
        """Conservative-parallel diagnostics for a partitioned deployment.

        Empty dict when no partition map is installed (the common case).
        Reports the partition layout, this worker's transit counters, and
        the cross-edge traffic matrix (``"p0->p1" -> [records, bytes]``).
        In worker mode the numbers cover this partition's sends/receives;
        ``run_partitioned``'s result carries every partition's.
        """
        transit = getattr(self.dep, "transit", None)
        if transit is None:
            return {}
        stats = transit.stats_dict()
        pmap = transit.pmap
        stats["partition_sizes"] = pmap.sizes()
        stats["cut_edges"] = pmap.cut_edges(transit.traffic_out)
        # Hosts by messages sent across the cut, noisiest first.
        chatter: Dict[str, int] = {}
        for (host, _pid), (cnt, _b) in transit.traffic_out.items():
            chatter[host] = chatter.get(host, 0) + cnt
        stats["noisiest_hosts"] = sorted(
            chatter.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
        return stats

    # ------------------------------------------------------------- compute
    def compute_report(self) -> Dict[str, object]:
        """Task-queue diagnostics when the compute plane is running.

        Empty dict when :func:`repro.compute.start_compute` was never
        called on this deployment.  Splits scheduled tasks by locality
        class (``local`` / ``pre-staged`` / ``pulled``) and bytes moved
        by the scheduler's pre-staging vs by the tasks themselves.
        """
        queue = getattr(self.dep, "compute", None)
        if queue is None:
            return {}
        st = queue.stats
        return {
            "queue_host": queue.host,
            "policy": queue.policy,
            "workers": len(queue.workers),
            "queued": queue.pending_count(),
            "leased": queue.leased_count(),
            "submitted": st["submitted"],
            "completed": st["completed"],
            "failed": st["failed"],
            "requeued": st["requeued"],
            "by_class": queue.by_class(),
            "prestage_segments": st["prestage_segments"],
            "prestage_already": st["prestage_already"],
            "scheduler_bytes_moved": st["prestage_bytes"],
            "task_local_bytes": st["task_local_bytes"],
            "task_remote_bytes": st["task_remote_bytes"],
            "task_out_bytes": st["task_out_bytes"],
            "jobs": len(queue.jobs),
            "jobs_finished": sum(
                1 for rec in queue.jobs.values()
                if rec["finished"] is not None),
        }

    # --------------------------------------------------------------- text
    def summary(self) -> str:
        rep = self.replica_report()
        bal = self.balance_report()
        orphans = self.orphaned_segments()
        lines = [
            f"providers: {len(bal.storage_utilization)} live",
            f"segments: {rep.total_segments} "
            f"(healthy {rep.healthy}, under {len(rep.under_replicated)}, "
            f"over {len(rep.over_replicated)}, "
            f"divergent {len(rep.version_divergent)})",
            f"orphans: {len(orphans)}",
            f"storage balance: mean {100 * bal.mean_utilization:.1f}%, "
            f"unevenness {bal.unevenness_ratio:.2f}",
        ]
        busiest = self.busiest_services()
        if busiest:
            lines.append("busiest services: " + ", ".join(
                f"{svc} ({n})" for svc, n in busiest))
        cache = self.cache_report()
        if any(cache.values()):
            width = (cache["vec_pieces"] / cache["vec_rpcs"]
                     if cache["vec_rpcs"] else 0.0)
            lines.append(
                f"location cache: {cache['loc_hits']} hits / "
                f"{cache['loc_misses']} misses / {cache['loc_stale']} stale; "
                f"meta {cache['meta_hits']}/{cache['meta_misses']}; "
                f"vectored rpcs {cache['vec_rpcs']} "
                f"(avg width {width:.1f})")
        disk = self.disk_report()
        if any(disk.values()):
            lines.append(
                f"page cache: {disk['cache_hits']} hits / "
                f"{disk['cache_misses']} misses; "
                f"write-back absorbed {disk['writes_absorbed']}, "
                f"flushed {disk['flush_pages']} pages in "
                f"{disk['flush_batches']} batches "
                f"({disk['dirty_pages']} still dirty); "
                f"coalesced {disk['coalesced']} requests "
                f"(queue peak {disk['queue_peak']})")
        ns = self.namespace_report()
        shards = ns["shards"]
        ops = ", ".join(f"{h} {row['ops_served']} ops"
                        for h, row in shards.items())
        line = f"namespace: {len(shards)} shards: {ops}"
        if ns["mirrors"]:
            line += f"; {len(ns['mirrors'])} mirrors"
        lines.append(line)
        part = self.partition_report()
        if part:
            lines.append(
                f"partitions: {part['n_partitions']} "
                f"(lookahead {part['lookahead_s'] * 1e6:.0f}us, "
                f"cut edges {part['cut_edges']}, "
                f"records out {part['records_out']} / "
                f"in {part['records_in']}, dropped {part['dropped']})")
        comp = self.compute_report()
        if comp:
            cls = comp["by_class"]
            lines.append(
                f"compute: {comp['policy']} policy, "
                f"queue depth {comp['queued']} (+{comp['leased']} leased), "
                f"{comp['completed']}/{comp['submitted']} tasks done "
                f"(local {cls['local']} / pre-staged {cls['pre-staged']} / "
                f"pulled {cls['pulled']}, requeued {comp['requeued']}); "
                f"bytes moved: scheduler "
                f"{comp['scheduler_bytes_moved'] >> 20} MB, tasks "
                f"{comp['task_remote_bytes'] >> 20} MB remote")
        return "\n".join(lines)
