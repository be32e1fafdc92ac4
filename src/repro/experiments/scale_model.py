"""The scale suite's workload model, shared by both executions.

`repro.experiments.scale` (the serial driver) and
`repro.experiments.partitioned` (the conservative-parallel driver) must
build byte-identical workloads — same tenant population, same Zipf and
diurnal weights, same cluster tunables — or the determinism contract
between them is meaningless.  The shared constants and pure helpers
live here so neither driver imports the other (the serial driver lazily
dispatches *to* the parallel one; the reverse edge would be a cycle).
"""

from __future__ import annotations

import math
from typing import Iterator, List, Tuple

from repro.cluster import ClusterSpec, small_cluster
from repro.core.params import SorrentoParams

KB = 1 << 10
GB = 1 << 30

N_TENANTS = 64
ZIPF_S = 1.1           # tenant popularity exponent
DIURNAL_WAVES = 2      # load peaks across the run
DIURNAL_AMPLITUDE = 0.8
FILE_SIZE = 16 * KB
READ_SIZE = 8 * KB
N_CLIENT_STUBS = 16
ARRIVAL_BINS = 96


def files_per_tenant(n_files: int) -> int:
    return max(1, n_files // N_TENANTS)


def scale_params(n_providers: int) -> SorrentoParams:
    """Tunables for big-cluster runs.

    The heartbeat channel is O(providers^2) deliveries per interval —
    the protocol's real cost, which the suite deliberately simulates —
    so the announcement period grows with the cluster, as any real
    deployment's would.  Background optimizers (migration) idle: the
    suite measures the steady serving path.
    """
    if n_providers >= 1000:
        heartbeat, vnodes = 10.0, 8
    elif n_providers >= 300:
        heartbeat, vnodes = 5.0, 16
    elif n_providers >= 100:
        heartbeat, vnodes = 5.0, 64
    else:
        heartbeat, vnodes = 1.0, 64
    return SorrentoParams(
        heartbeat_interval=heartbeat,
        refresh_cycle=120.0,
        migration_interval=600.0,
        ring_vnodes=vnodes,
        # A join into an empty store owes no refresh, so formation before
        # the preload schedules none; a short delay keeps the suite's
        # warm-up (delay + 1 s) short.
        join_refresh_delay_max=2.0,
    )


def scale_spec(n_providers: int) -> ClusterSpec:
    """The suite's cluster: the providers plus a fixed compute pool."""
    return small_cluster(n_providers, n_compute=N_CLIENT_STUBS + 4,
                         capacity_per_node=4 * GB, name=f"scale-{n_providers}")


def _tenant_file(tenant: int, i: int) -> str:
    return f"/t{tenant:02d}/f{i:06d}"


def zipf_cum_weights(n: int, s: float) -> List[float]:
    """Cumulative Zipf(``s``) weights of ranks 1..n (``cum_weights=``)."""
    total, cum = 0.0, []
    for rank in range(n):
        total += 1.0 / (rank + 1) ** s
        cum.append(total)
    return cum


def _diurnal_cum_weights(bins: int) -> List[float]:
    """Cumulative weights of a sinusoidal arrival-rate wave."""
    total, cum = 0.0, []
    for b in range(bins):
        t = (b + 0.5) / bins
        rate = 1.0 + DIURNAL_AMPLITUDE * math.sin(
            2.0 * math.pi * DIURNAL_WAVES * t - math.pi / 2.0)
        total += max(rate, 0.05)
        cum.append(total)
    return cum


def draw_sessions(rng, n_sessions: int, duration: float,
                  fpt: int) -> Iterator[Tuple[int, str, float]]:
    """Yield ``(i, path, arrival)`` for every session: Zipf tenant skew
    and a diurnal arrival wave, to be multiplexed over the client stubs
    as ``clients[i % N_CLIENT_STUBS]``.  Every draw happens whether or
    not the consumer keeps the session, so the stream position after
    session ``i`` is identical on every partition worker."""
    tenants = rng.choices(range(N_TENANTS),
                          cum_weights=zipf_cum_weights(N_TENANTS, ZIPF_S),
                          k=n_sessions)
    arrival_bins = rng.choices(range(ARRIVAL_BINS),
                               cum_weights=_diurnal_cum_weights(ARRIVAL_BINS),
                               k=n_sessions)
    for i in range(n_sessions):
        path = _tenant_file(tenants[i], rng.randrange(fpt))
        arrival = (arrival_bins[i] + rng.random()) * (duration / ARRIVAL_BINS)
        yield i, path, arrival
