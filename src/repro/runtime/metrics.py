"""Per-service operation metrics, recorded by the service runtime.

A :class:`MetricsRegistry` holds one :class:`OpStats` per
``(scope, service)`` pair.  Scope ``"client"`` counts outbound RPCs and
one-ways as issued by a node; scope ``"server"`` counts handler
executions (virtual handler time, response bytes).  Deployments create
one registry per cluster and hand it to every node's runtime, which
makes cross-system comparisons (Sorrento vs NFS vs PVFS roundtrips per
workload op) a dictionary lookup instead of ad-hoc counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil
from typing import Dict, Iterator, List, Optional, Tuple

CLIENT = "client"
SERVER = "server"

#: Scope for the client-side cache/vectoring counters (hits, misses,
#: stale evictions, vector widths) so they land in the same registry —
#: and the same ``report()`` — as the RPC counters they saved.  Counted
#: through ``observe_oneway`` (no latency: cache hits are local).
CACHE = "cache"

#: Scope for the provider storage-engine counters (page-cache hits and
#: misses, absorbed write-backs, coalesced scheduler requests, read-ahead
#: pages) plus ``flush`` latency observations.  Local device events, so
#: everything except flushes is counted through ``observe_oneway``.
DISK = "disk"


#: Latency histogram shape: log-linear over whole microseconds — 16 exact
#: buckets below 16 us, then 8 linear sub-buckets per power of two (a
#: bucket is at most 1/8 wider than its floor), the last one open-ended
#: (from ~8.9 h).  Bucket 0 is [0, 1 us): every sync one-way handler.
_N_BUCKETS = 16 + 31 * 8
#: Smallest whole-microsecond latency of each bucket (and one past the last).
_FLOOR_US = [i if i < 16 else (8 + i % 8) << (i // 8 - 1)
             for i in range(_N_BUCKETS + 1)]


@dataclass(slots=True)
class OpStats:
    """Counters for one service name within one scope."""

    calls: int = 0          # completed RPC invocations (ok or failed)
    ok: int = 0             # invocations that returned a response
    errors: int = 0         # invocations ending in a remote error
    timeouts: int = 0       # invocations ending in RpcTimeout
    retries: int = 0        # always 0: the runtime does not retry
    oneways: int = 0        # fire-and-forget sends (no latency recorded)
    bytes_out: int = 0      # request/one-way payload bytes
    bytes_in: int = 0       # response payload bytes (server: bytes served)
    latency_total: float = 0.0
    #: Invocations per latency bucket (see ``_N_BUCKETS``); sums to ``calls``.
    hist: List[int] = field(default_factory=lambda: [0] * _N_BUCKETS, repr=False)

    @property
    def latency_mean(self) -> float:
        return self.latency_total / self.calls if self.calls else 0.0

    def observe(self, latency: float, ok: bool, timeout: bool = False,
                bytes_out: int = 0, bytes_in: int = 0) -> None:
        """Fold in one finished invocation (the runtime calls this
        positionally, once per RPC and once per handled message)."""
        self.calls += 1
        if ok:
            self.ok += 1
        elif timeout:
            self.timeouts += 1
        else:
            self.errors += 1
        self.bytes_out += bytes_out
        self.bytes_in += bytes_in
        self.latency_total += latency
        if not latency:
            self.hist[0] += 1
            return
        us = int(latency * 1e6)
        if us >= 16:
            shift = us.bit_length() - 4
            us = (shift << 3) + (us >> shift)
            if us >= _N_BUCKETS:
                us = _N_BUCKETS - 1
        self.hist[us] += 1

    def observe_oneway(self, nbytes: int = 0) -> None:
        self.oneways += 1
        self.bytes_out += nbytes

    def quantile(self, q: float) -> float:
        """Latency in seconds below which a share ``q`` of the observed
        invocations fell: the midpoint of the bucket holding the
        ``ceil(q * calls)``-th smallest (the floor of bucket 0 and of the
        open-ended last one); 0.0 with nothing observed."""
        rank = max(1, ceil(q * self.calls))
        for idx, n in enumerate(self.hist):
            rank -= n
            if rank <= 0:
                lo = _FLOOR_US[idx]
                hi = _FLOOR_US[idx + 1] if 0 < idx < _N_BUCKETS - 1 else lo
                return (lo + hi) / 2e6
        return 0.0


class _Scope(dict):
    """One scope's ``{service: OpStats}``; a subscript creates a missing cell (in ``flat`` too)."""

    __slots__ = ("flat", "scope")

    def __missing__(self, service: str) -> OpStats:
        cell = self[service] = self.flat[(self.scope, service)] = OpStats()
        return cell


class MetricsRegistry:
    """All OpStats of one deployment, keyed by (scope, service)."""

    def __init__(self) -> None:
        self._stats: Dict[Tuple[str, str], OpStats] = {}
        self._scopes: Dict[str, _Scope] = {}

    def scope(self, scope: str) -> Dict[str, OpStats]:
        """One scope's ``{service: cell}``: ``table[service]`` is ``stats(scope, service)``."""
        table = self._scopes.get(scope)
        if table is None:
            table = self._scopes[scope] = _Scope()
            table.flat, table.scope = self._stats, scope
        return table

    def stats(self, scope: str, service: str) -> OpStats:
        """The (created-on-demand) stats cell for a scope/service pair."""
        table = self._scopes.get(scope)
        return (self.scope(scope) if table is None else table)[service]

    def get(self, scope: str, service: str) -> Optional[OpStats]:
        """The stats cell if anything was ever recorded, else None."""
        return self._stats.get((scope, service))

    def items(self, scope: Optional[str] = None) -> Iterator[Tuple[Tuple[str, str], OpStats]]:
        for key, cell in sorted(self._stats.items()):
            if scope is None or key[0] == scope:
                yield key, cell

    def services(self, scope: str) -> list:
        return sorted(svc for (s, svc) in self._stats if s == scope)

    def report(self, scope: Optional[str] = None) -> str:
        """Fixed-width text summary (one line per scope/service)."""
        lines = [
            f"{'scope':<8}{'service':<20}{'calls':>7}{'ok':>7}{'to':>5}"
            f"{'err':>5}{'retry':>6}{'1way':>6}{'mean ms':>9}{'p50 ms':>9}"
            f"{'p99 ms':>9}"
        ]
        for (s, svc), c in self.items(scope):
            lines.append(
                f"{s:<8}{svc:<20}{c.calls:>7}{c.ok:>7}{c.timeouts:>5}"
                f"{c.errors:>5}{c.retries:>6}{c.oneways:>6}"
                f"{1e3 * c.latency_mean:>9.2f}{1e3 * c.quantile(0.5):>9.2f}"
                f"{1e3 * c.quantile(0.99):>9.2f}"
            )
        return "\n".join(lines)
