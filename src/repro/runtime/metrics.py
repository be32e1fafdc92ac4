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
from typing import Dict, Iterator, Optional, Tuple

CLIENT = "client"
SERVER = "server"

#: Scope for the client-side cache/vectoring counters (hits, misses,
#: stale evictions, vector widths) so they land in the same registry —
#: and the same ``metrics_rows`` reports — as the RPC counters they
#: saved.  Counted through ``observe_oneway`` (no latency: cache hits
#: are local).
CACHE = "cache"

#: Scope for the provider storage-engine counters (page-cache hits and
#: misses, absorbed write-backs, coalesced scheduler requests, read-ahead
#: pages) plus ``flush`` latency observations.  Local device events, so
#: everything except flushes is counted through ``observe_oneway``.
DISK = "disk"

#: Scope for cross-partition traffic under the conservative-parallel
#: kernel: one ``"p<src>->p<dst>"`` service per directed cut edge,
#: counted through ``observe_oneway`` (record count + wire bytes) by
#: ``repro.sim.parallel.Transit`` when the deployment's registry is
#: wired.  The string literal lives in that module too
#: (``PARTITION_SCOPE``) so the sim layer never imports the runtime.
PARTITION = "partition"


@dataclass
class OpStats:
    """Counters for one service name within one scope."""

    calls: int = 0          # completed RPC invocations (ok or failed)
    ok: int = 0             # invocations that returned a response
    errors: int = 0         # invocations ending in a remote error
    timeouts: int = 0       # invocations ending in RpcTimeout
    retries: int = 0        # extra attempts beyond the first, summed
    oneways: int = 0        # fire-and-forget sends (no latency recorded)
    bytes_out: int = 0      # request/one-way payload bytes
    bytes_in: int = 0       # response payload bytes (server: bytes served)
    latency_total: float = 0.0
    latency_min: float = field(default=float("inf"))
    latency_max: float = 0.0

    @property
    def latency_mean(self) -> float:
        return self.latency_total / self.calls if self.calls else 0.0

    def observe(self, latency: float, *, ok: bool, timeout: bool = False,
                retries: int = 0, bytes_out: int = 0,
                bytes_in: int = 0) -> None:
        """Fold in one finished invocation."""
        self.calls += 1
        if ok:
            self.ok += 1
        elif timeout:
            self.timeouts += 1
        else:
            self.errors += 1
        self.retries += retries
        self.bytes_out += bytes_out
        self.bytes_in += bytes_in
        self.latency_total += latency
        self.latency_min = min(self.latency_min, latency)
        self.latency_max = max(self.latency_max, latency)

    def observe_oneway(self, nbytes: int = 0) -> None:
        self.oneways += 1
        self.bytes_out += nbytes


class MetricsRegistry:
    """All OpStats of one deployment, keyed by (scope, service)."""

    def __init__(self) -> None:
        self._stats: Dict[Tuple[str, str], OpStats] = {}

    def stats(self, scope: str, service: str) -> OpStats:
        """The (created-on-demand) stats cell for a scope/service pair."""
        key = (scope, service)
        cell = self._stats.get(key)
        if cell is None:
            cell = self._stats[key] = OpStats()
        return cell

    def get(self, scope: str, service: str) -> Optional[OpStats]:
        """The stats cell if anything was ever recorded, else None."""
        return self._stats.get((scope, service))

    def items(self, scope: Optional[str] = None) -> Iterator[Tuple[Tuple[str, str], OpStats]]:
        for key, cell in sorted(self._stats.items()):
            if scope is None or key[0] == scope:
                yield key, cell

    def services(self, scope: str) -> list:
        return sorted(svc for (s, svc) in self._stats if s == scope)

    def total_calls(self, scope: str) -> int:
        return sum(c.calls for (s, _), c in self._stats.items() if s == scope)

    def clear(self) -> None:
        self._stats.clear()

    def report(self, scope: Optional[str] = None) -> str:
        """Fixed-width text summary (one line per scope/service)."""
        lines = [
            f"{'scope':<8}{'service':<20}{'calls':>7}{'ok':>7}{'to':>5}"
            f"{'err':>5}{'retry':>6}{'1way':>6}{'mean ms':>9}{'max ms':>9}"
        ]
        for (s, svc), c in self.items(scope):
            lines.append(
                f"{s:<8}{svc:<20}{c.calls:>7}{c.ok:>7}{c.timeouts:>5}"
                f"{c.errors:>5}{c.retries:>6}{c.oneways:>6}"
                f"{1e3 * c.latency_mean:>9.2f}{1e3 * c.latency_max:>9.2f}"
            )
        return "\n".join(lines)
