"""Layer attribution from outside the program.

Three sources, none of which needs an edit under ``src/``:

* **Counters** the layers already export (kernel event counts, fabric
  message counts, NIC byte pipes, the deployment ``MetricsRegistry``,
  engine/disk/provider/client ``stats``): :func:`snapshot` flattens them
  into one additive dict, :func:`delta` subtracts the window start, and
  :func:`count_metrics` turns the difference into the ``count``-sourced
  per-layer metrics.  They are seed-determined and repeat exactly.
* **Spans** from ``SorrentoConfig(trace=True)`` plus the ``op:*`` spans
  the drivers open: :class:`SpanFold` drains the tracer's bounded deque
  as ops finish and keeps per-name aggregates.
* **cProfile** of the traced window: :func:`profile_metrics` buckets
  self time and call counts by ``src/repro/<package>/`` path.
"""

from __future__ import annotations

import os
import resource
from typing import Dict, Iterable, List, Optional, Tuple

from spec import LAYERS

Raw = Dict[str, float]

_REG_FIELDS = ("calls", "oneways", "retries", "timeouts", "latency_total")

_CORE_PROVIDER = {"provider.py", "segment.py", "extent.py", "twophase.py",
                  "layout.py"}
_CORE_SELFORG = {"membership.py", "hashing.py", "location.py", "placement.py",
                 "migration.py", "locality.py"}
_LOC_SERVICES = ("loc_lookup", "loc_update", "loc_refresh")
_CLIENT_KEYS = ("loc_hits", "loc_misses", "meta_hits", "meta_misses",
                "vec_rpcs", "vec_pieces", "conflicts", "ns_redirects")
_ENGINE_KEYS = ("cache_hits", "cache_misses", "writes_absorbed",
                "writes_through", "coalesced", "flush_batches", "evicted")
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


# ------------------------------------------------------------- counters
def snapshot(dep) -> Raw:
    """Every public counter the count-type metrics need, flattened into
    one additive ``{key: number}`` dict (so window deltas and sums over
    partition workers are plain key-wise arithmetic)."""
    sim, fabric = dep.sim, dep.fabric
    raw: Raw = {
        "events": sim._nprocessed, "swept": sim._nswept,
        "msgs": fabric.messages_sent, "dropped": fabric.messages_dropped,
    }
    for (scope, service), st in dep.metrics.items():
        for f in _REG_FIELDS:
            raw[f"reg|{scope}|{service}|{f}"] = getattr(st, f)
    for host, node in dep.nodes.items():
        if node.dormant:
            continue
        raw[f"nic|{host}"] = node.nic.bytes_sent
    disk_reqs = disk_bytes = 0
    for host, provider in dep.providers.items():
        dev = provider.node.device
        members = getattr(dev, "disks", [dev])
        disk_reqs += sum(d.requests for d in members)
        disk_bytes += sum(d.bytes_done for d in members)
        raw[f"disk_busy|{host}"] = dev.busy_accum
        raw["replications"] = raw.get("replications", 0) \
            + provider.stats["replications"]
        raw["migrations"] = raw.get("migrations", 0) \
            + provider.stats["migrations"]
    raw["disk_reqs"] = disk_reqs
    raw["disk_bytes"] = disk_bytes
    # The inspector's cache_report()/disk_report() sum the same dicts;
    # importing repro.tools pulls in scipy (~1 s), which no workload
    # needs before its window, so the sums are spelled out here.
    for key in _CLIENT_KEYS:
        raw[f"cache|{key}"] = sum(c.stats[key] for c in dep.clients)
    for key in _ENGINE_KEYS:
        raw[f"eng|{key}"] = sum(
            p.node.fs.engine.stats[key] for p in dep.providers.values()
            if p.node.fs.engine is not None)
    servers = dep.ns_shard_servers or {dep.ns_host: dep.ns}
    raw["ns_ops"] = sum(s.ops_served for s in servers.values()
                        if not s.node.dormant)
    return raw


def delta(start: Raw, end: Raw) -> Raw:
    return {k: v - start.get(k, 0) for k, v in end.items()}


def merge(raws: Iterable[Raw]) -> Raw:
    """Key-wise sum (partition workers each count their own hosts)."""
    out: Raw = {}
    for raw in raws:
        for k, v in raw.items():
            out[k] = out.get(k, 0) + v
    return out


def rss_mb() -> float:
    """Peak resident set of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def nic_rates(dep) -> Dict[str, float]:
    return {h: n.nic.rate for h, n in dep.nodes.items() if not n.dormant}


def _reg(raw: Raw, scope: str, field: str,
         prefix: Optional[str] = None,
         services: Optional[Tuple[str, ...]] = None) -> float:
    total = 0.0
    for key, val in raw.items():
        if not key.startswith("reg|"):
            continue
        _r, sc, service, f = key.split("|")
        if sc != scope or f != field:
            continue
        if prefix is not None and not service.startswith(prefix):
            continue
        if services is not None and service not in services:
            continue
        total += val
    return total


def _ratio(num: float, den: float) -> Optional[float]:
    return num / den if den else None


def exact_metrics(raw: Raw, ops: int, attempts: int, raised: int,
                  sim_window: float, lats: List[float]) -> Dict[str, float]:
    """The seed-determined end-to-end metrics of one window."""
    lats = sorted(lats)
    n = len(lats)
    wire = sum(v for k, v in raw.items() if k.startswith("nic|"))
    return {
        "sim_ops_per_s": ops / sim_window,
        "sim_lat_p50_ms": 1e3 * lats[n // 2],
        "sim_lat_p99_ms": 1e3 * lats[min(n - 1, (99 * n) // 100)],
        "failed_op_share": raised / attempts,
        "sim_rpcs_per_op": _reg(raw, "client", "calls") / ops,
        "sim_wire_kb_per_op": wire / 1024.0 / ops,
    }


def count_metrics(raw: Raw, rates: Dict[str, float], ops: int,
                  sim_window: float, payload: int) -> Dict[str, Optional[float]]:
    """The ``count``-sourced per-layer metrics that come from counters
    (driver bookkeeping and workload extras are added by the worker).
    ``None`` marks a metric the workload does not exercise."""
    kops = ops / 1000.0
    client_lat = server_lat = 0.0
    for key, val in raw.items():
        # Wire + queueing = what the caller waited minus what the handler
        # ran, over the services that have both sides (one-ways have no
        # client latency).
        if key.startswith("reg|client|") and key.endswith("|latency_total"):
            service = key.split("|")[2]
            skey = f"reg|server|{service}|latency_total"
            if skey in raw and not raw[f"reg|client|{service}|oneways"]:
                client_lat += val
                server_lat += raw[skey]
    nic_util = max((raw.get(f"nic|{h}", 0) / (rate * sim_window)
                    for h, rate in rates.items()), default=0.0)
    disk_busy = max((v / sim_window for k, v in raw.items()
                     if k.startswith("disk_busy|")), default=0.0)
    disk_busy_total = sum(v for k, v in raw.items()
                          if k.startswith("disk_busy|"))
    loc_total = raw["cache|loc_hits"] + raw["cache|loc_misses"]
    meta_total = raw["cache|meta_hits"] + raw["cache|meta_misses"]
    page_total = raw["eng|cache_hits"] + raw["eng|cache_misses"]
    eng_writes = raw["eng|writes_absorbed"] + raw["eng|writes_through"]
    return {
        "sim.events_per_op": raw["events"] / ops,
        "sim.swept_timers_per_op": raw["swept"] / ops,
        "network.msgs_per_op": raw["msgs"] / ops,
        "network.msgs_dropped": raw["dropped"],
        "network.nic_util_max": nic_util,
        "network.wire_queue_sim_ms_per_op":
            1e3 * (client_lat - server_lat) / ops,
        "runtime.oneways_per_op": _reg(raw, "client", "oneways") / ops,
        "runtime.retries_per_kop": _reg(raw, "client", "retries") / kops,
        "runtime.timeouts_per_kop": _reg(raw, "client", "timeouts") / kops,
        "core.client.loc_hit_ratio": _ratio(raw["cache|loc_hits"], loc_total),
        "core.client.meta_hit_ratio":
            _ratio(raw["cache|meta_hits"], meta_total),
        "core.client.vec_pieces_per_rpc":
            _ratio(raw["cache|vec_pieces"], raw["cache|vec_rpcs"]),
        "core.namespace.rpcs_per_op":
            _reg(raw, "client", "calls", prefix="ns_") / ops,
        "core.namespace.handler_sim_ms_per_op":
            1e3 * _reg(raw, "server", "latency_total", prefix="ns_") / ops,
        "core.namespace.redirects_per_kop": raw["cache|ns_redirects"] / kops,
        "core.namespace.ops_per_sim_s": raw["ns_ops"] / sim_window,
        "core.provider.rpcs_per_op":
            _reg(raw, "client", "calls", prefix="seg_") / ops,
        "core.provider.handler_sim_ms_per_op":
            1e3 * _reg(raw, "server", "latency_total", prefix="seg_") / ops,
        "core.provider.replications": raw["replications"],
        "core.provider.commit_conflicts": raw["cache|conflicts"],
        "core.selforg.heartbeats_per_sim_s":
            raw.get("reg|client|heartbeat|oneways", 0) / sim_window,
        "core.selforg.loc_rpcs_per_op":
            (_reg(raw, "client", "calls", services=_LOC_SERVICES)
             + _reg(raw, "client", "oneways", services=_LOC_SERVICES)) / ops,
        "core.selforg.migrations": raw["migrations"],
        "storage.disk_reqs_per_op": raw["disk_reqs"] / ops,
        "storage.disk_bytes_per_payload_byte":
            _ratio(raw["disk_bytes"], payload),
        "storage.disk_busy_share_max": disk_busy,
        "storage.disk_sim_ms_per_op": 1e3 * disk_busy_total / ops,
        "storage.cache_hit_ratio": _ratio(raw["eng|cache_hits"], page_total),
        "storage.writes_absorbed_share":
            _ratio(raw["eng|writes_absorbed"], eng_writes),
        "storage.coalesced_per_flush":
            _ratio(raw["eng|coalesced"], raw["eng|flush_batches"]),
        "storage.evictions": raw["eng|evicted"] if page_total else None,
        "faults.events_injected":
            sum(v for k, v in raw.items()
                if k.startswith("reg|fault|") and k.endswith("|oneways")),
    }


# ---------------------------------------------------------------- spans
class SpanFold:
    """Per-name aggregates of finished spans, folded as the run goes.

    The tracer keeps only its last 4 096 finished spans, so the drivers
    call :meth:`drain` whenever an op span closes.  A span's children
    finish (and are appended) before it does, so by the time an ``op:*``
    span is drained the ``rpc:*`` spans parented under it have already
    been collected.

    Only RPCs issued by the op's own sim process parent under its span:
    fan-out through ``gather()`` runs in child processes whose spans are
    roots (see ``runtime/trace.py``), so their time stays in the op's
    self time until the envelope carries a trace context.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.by_name: Dict[str, List[float]] = {}   # name -> [count, total]
        self._kids: Dict[int, List[Tuple[float, float]]] = {}
        self.op_total = 0.0
        self.op_rpc_union = 0.0

    def drain(self) -> None:
        finished = self.tracer.finished
        while finished:
            span = finished.popleft()
            cell = self.by_name.setdefault(span.name, [0, 0.0])
            cell[0] += 1
            cell[1] += span.duration
            if span.name.startswith("op:"):
                self.op_total += span.duration
                self.op_rpc_union += _union(self._kids.pop(id(span), []))
            elif span.name.startswith("rpc:") and span.parent is not None:
                root = span.parent
                while root.parent is not None:
                    root = root.parent
                if root.name.startswith("op:"):
                    self._kids.setdefault(id(root), []).append(
                        (span.start, span.end))

    def metrics(self, ops: int) -> Dict[str, float]:
        return {
            "runtime.rpc_sim_ms_per_op": 1e3 * self.op_rpc_union / ops,
            "core.client.self_sim_ms_per_op":
                1e3 * (self.op_total - self.op_rpc_union) / ops,
        }


def _union(intervals: List[Tuple[float, float]]) -> float:
    total, cur_end = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if start > cur_end:
            total += end - start
            cur_end = end
        elif end > cur_end:
            total += end - cur_end
            cur_end = end
    return total


# -------------------------------------------------------------- profile
#: Pseudo-layer of the bench's own frames (op loops, span folding).  They
#: are the measuring apparatus, not the program: their time, and the
#: time of the built-ins they call, is left out of the shares.
_BENCH = "bench"


def layer_of(filename: str) -> Optional[str]:
    """The layer a source file belongs to; None for code outside the repo
    (stdlib, C built-ins), which is charged to its callers."""
    norm = filename.replace(os.sep, "/")
    marker = "/repro/"
    at = norm.rfind(marker)
    if at < 0:
        return _BENCH if norm.startswith(_BENCH_DIR) else None
    rel = norm[at + len(marker):]
    top, _, rest = rel.partition("/")
    if top == "sim":
        return "sim.parallel" if rest == "parallel.py" else "sim"
    if top in ("network", "runtime", "storage", "kvstore", "faults"):
        return top
    if top == "core":
        if rest.startswith("client/"):
            return "core.client"
        if rest == "namespace.py":
            return "core.namespace"
        if rest in _CORE_PROVIDER:
            return "core.provider"
        if rest in _CORE_SELFORG:
            return "core.selforg"
    return "other"


def profile_metrics(stats: dict, ops: int) -> Dict[str, float]:
    """Bucket a ``pstats.Stats(...).stats`` table by layer.

    ``stats`` maps ``(file, line, name)`` to ``(cc, nc, tt, ct, callers)``
    and each ``callers`` edge carries the callee's self time under that
    caller.  A function outside the repo has no layer of its own: its
    self time is charged along its caller edges, recursively, until a
    repo function is reached (a C built-in called from ``heapq`` called
    from the kernel lands in ``sim``).  Functions nobody in the repo
    called (the profiler's own frames) fall to ``other``.
    """
    self_time = dict.fromkeys(LAYERS + (_BENCH,), 0.0)
    calls = dict.fromkeys(LAYERS + (_BENCH,), 0)
    memo: Dict[tuple, Dict[str, float]] = {}

    def owners(func: tuple, seen: frozenset) -> Dict[str, float]:
        """Layer shares (summing to 1) that an external function's time
        is charged to."""
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        edges = stats[func][4] if func in stats else {}
        weights: Dict[str, float] = {}
        total = 0.0
        for caller, edge in edges.items():
            if caller in seen or caller == func:
                continue
            w = edge[3] if edge[3] > 0 else edge[2]    # cumulative, else self
            if w <= 0:
                continue
            for layer, share in owners(caller, seen | {func}).items():
                weights[layer] = weights.get(layer, 0.0) + w * share
            total += w
        out = ({k: v / total for k, v in weights.items()} if total
               else {"other": 1.0})
        if not seen:
            memo[func] = out
        return out

    kv = {"put": [0, 0.0], "get": [0, 0.0], "delete": [0, 0.0]}
    for func, (_cc, nc, tt, ct, callers) in stats.items():
        layer = layer_of(func[0])
        if layer is not None:
            self_time[layer] += tt
            calls[layer] += nc
            if layer == "kvstore" and func[0].endswith("db.py") \
                    and func[2] in kv:
                kv[func[2]][0] += nc
                kv[func[2]][1] += ct
            continue
        charged = 0.0
        for caller, edge in callers.items():
            for lay, share in owners(caller, frozenset({func})).items():
                self_time[lay] += edge[2] * share
            charged += edge[2]
        self_time["other"] += max(0.0, tt - charged)
    total = sum(self_time[layer] for layer in LAYERS)
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.host_self_share"] = self_time[layer] / total
        out[f"{layer}.calls_per_op"] = calls[layer] / ops
    kv_calls = sum(c for c, _t in kv.values())
    out["kvstore.puts_per_op"] = kv["put"][0] / ops
    out["kvstore.gets_per_op"] = kv["get"][0] / ops
    out["kvstore.host_us_per_call"] = (
        1e6 * sum(t for _c, t in kv.values()) / kv_calls if kv_calls else None)
    return out
